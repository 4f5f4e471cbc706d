"""Output checks for hwiloc sweep CSVs.

Every run is checked on any seed: each (sweep point, metric, statistic) row
that the config asks for is present exactly once, every value is finite
and positive, min <= mean <= max, units and draw counts are consistent
with the config. The clean-model CRB rows depend only on the fixed pilot
block, never on the seed, so they are compared with the reference on every
seed. At the default seed every row is compared with the reference CSV
generated once from the commit that defined this benchmark.

Tolerances are relative and per metric family. Float refactors may move
the last digits of an answer, never change it (see TOLERANCES).
"""

from __future__ import annotations

import csv
import io
import math

CSV_HEADER = "sweep_value,metric,statistic,value,units,realizations,trials"
BOUND_FAMILIES = ("crb_m2", "crb_m1", "lb")
BOUND_SCALARS = ("aeb", "deb", "peb")
ESTIMATOR_METRICS = ("mmle_rmse", "mle_m1_rmse")
SEED_FREE_FAMILY = "crb_m2"

# family -> (relative tolerance, reason). Each tolerance sits well above
# what a more exact computation of the same answer moved the value by
# (measured on configs/full.cfg and configs/desk.cfg at their default seeds).
TOLERANCES = {
    "crb_m2": (
        1e-9,
        "closed-form clean FIM and CRB: only float reassociation can move it",
    ),
    "crb_m1": (
        1e-5,
        "impaired FIM by central differences: steps 1e-5 and 1e-7 move the "
        "bound by up to 8.6e-8, so an exact FIM may differ by that much",
    ),
    "lb": (
        1e-6,
        "the pseudo-true fit stops at a gradient tolerance: refitting it "
        "1000x tighter moved the bound by at most 2.4e-9",
    ),
    "mmle_rmse": (
        1e-5,
        "same converged trials: refining every trial 1000x tighter moved "
        "the RMSE by at most 4.5e-8",
    ),
    "mle_m1_rmse": (
        1e-5,
        "same converged trials: refining every trial 1000x tighter moved "
        "the RMSE by at most 4.5e-8",
    ),
}
# Estimator rows are compared by value only when they average the same
# number of converged trials as the reference: a refinement that converges
# trials the reference dropped at the iteration cap averages a different
# set (up to 15% RMSE apart at -10 dBm), which is not a wrong answer. The
# converged count itself is gated end to end through draw_yield.


def parse_config(text: str) -> dict[str, str]:
    """Flat key=value config, '#' comments; the same format the CLI reads."""
    out: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def expected_rows(command: str, config: dict[str, str]) -> dict[tuple[float, str, str], str]:
    """(sweep value, metric, statistic) -> unit for every row the sweep owes."""
    outputs = set(config["outputs"].split(","))
    points = [float(v) for v in config["sweep_values"].split(",")]
    rows: dict[tuple[float, str, str], str] = {}
    if command == "bounds":
        for fam in (f for f in BOUND_FAMILIES if f in outputs):
            for sc in (s for s in BOUND_SCALARS if s in outputs):
                unit = "deg" if sc == "aeb" else "m"
                for p in points:
                    for stat in ("mean", "min", "max"):
                        rows[(p, f"{fam}_{sc}", stat)] = unit
    else:
        for metric in (m for m in ESTIMATOR_METRICS if m in outputs):
            for p in points:
                rows[(p, metric, "mean")] = "m"
    return rows


def parse_csv(text: str) -> list[dict[str, str]]:
    if not text.startswith(CSV_HEADER + "\n"):
        raise ValueError("CSV header differs from the documented schema")
    return list(csv.DictReader(io.StringIO(text)))


def family(metric: str) -> str:
    return metric if metric in ESTIMATOR_METRICS else metric.rsplit("_", 1)[0]


def draw_counts(command: str, config: dict[str, str], text: str | None) -> tuple[int, int]:
    """(attempted, produced) draws of one sweep, read from the CSV's own
    realizations/trials columns. A missing or unreadable CSV produced none."""
    points = len(config["sweep_values"].split(","))
    if command == "bounds":
        per_point = int(config["n_realizations"])
        attempted = points * per_point
    else:
        per_point = int(config["n_trials"])
        n_metrics = sum(1 for m in ESTIMATOR_METRICS if m in config["outputs"].split(","))
        attempted = points * n_metrics * per_point
    if text is None:
        return attempted, 0
    try:
        rows = parse_csv(text)
    except ValueError:
        return attempted, 0
    produced = 0
    if command == "bounds":
        seen: dict[str, int] = {}
        for r in rows:  # every bound row of a point carries the same count
            seen[r["sweep_value"]] = int(r["realizations"])
        produced = sum(seen.values())
    else:
        produced = sum(int(r["trials"]) for r in rows if r["statistic"] == "mean")
    return attempted, min(produced, attempted)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def check_csv(
    text: str,
    command: str,
    config: dict[str, str],
    reference: str | None,
    compare_all: bool,
) -> list[str]:
    """Problems found in one sweep CSV; empty when it passes.

    reference is the reference CSV text; its seed-free rows are compared on
    every seed, all of its rows when compare_all is set.
    """
    try:
        rows = parse_csv(text)
    except ValueError as exc:
        return [str(exc)]
    problems: list[str] = []
    want = expected_rows(command, config)
    got: dict[tuple[float, str, str], dict[str, str]] = {}
    for r in rows:
        try:
            key = (float(r["sweep_value"]), r["metric"], r["statistic"])
            value = float(r["value"])
            real, trials = int(r["realizations"]), int(r["trials"])
        except (TypeError, ValueError):
            problems.append(f"unparsable row {r}")
            continue
        if key in got:
            problems.append(f"duplicate row {key}")
        got[key] = r
        if key not in want:
            problems.append(f"unexpected row {key}")
            continue
        if r["units"] != want[key]:
            problems.append(f"{key}: units {r['units']} != {want[key]}")
        if not (math.isfinite(value) and value > 0.0):
            problems.append(f"{key}: value {value} is not finite and positive")
        if command == "bounds":
            if not (1 <= real <= int(config["n_realizations"]) and trials == 0):
                problems.append(f"{key}: draw counts {real}/{trials} out of range")
        elif not (real == int(config["n_trials"]) and 1 <= trials <= real):
            problems.append(f"{key}: draw counts {real}/{trials} out of range")
    for key in want:
        if key not in got:
            problems.append(f"missing row {key}")
    for p, metric, stat in want:
        keys = [(p, metric, s) for s in ("min", "mean", "max")]
        if stat != "mean" or not all(k in got for k in keys):
            continue
        lo, mean, hi = (float(got[k]["value"]) for k in keys)
        # a mean of equal values may round one ulp past them
        if not (lo <= mean * (1 + 1e-12) and mean <= hi * (1 + 1e-12)):
            problems.append(f"{(p, metric)}: min <= mean <= max violated: {lo}, {mean}, {hi}")
    if reference is not None:
        problems += _compare_reference(got, parse_csv(reference), compare_all)
    return problems


def _compare_reference(got, ref_rows, compare_all: bool) -> list[str]:
    problems = []
    for r in ref_rows:
        key = (float(r["sweep_value"]), r["metric"], r["statistic"])
        fam = family(r["metric"])
        g = got.get(key)
        if g is None or not (compare_all or fam == SEED_FREE_FAMILY):
            continue  # a missing row is reported by check_csv
        if compare_all and g["realizations"] != r["realizations"]:
            problems.append(
                f"{key}: realizations {g['realizations']} != reference {r['realizations']}"
            )
        if fam in ESTIMATOR_METRICS and g["trials"] != r["trials"]:
            continue
        rel, _ = TOLERANCES[fam]
        if not _close(float(g["value"]), float(r["value"]), rel):
            problems.append(
                f"{key}: value {g['value']} differs from reference {r['value']} "
                f"by more than {rel:g} relative"
            )
    return problems
