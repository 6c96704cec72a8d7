"""Output checks against an independent numpy reference.

Nothing here imports ``rankadapt``: the reference re-derives the effective
ranks, rank budgets, selections and projections from ``numpy.linalg.svd``
directly. Every check returns a list of problems; an empty list means the
output is correct.
"""

import csv
import json
import math
import re
from pathlib import Path

import numpy as np

from inputs import read_bundle

ALPHA = 0.5
MIN_RANK = 1
MAX_RANK_FRACTION = 0.5
INIT_TOLERANCE = 1e-10
# spectra values are compared to the reference relative to the layer's
# largest value of the same column; ranks relative to themselves
SPECTRA_RTOL = 1e-9
TOY_METHODS = ("stm", "zero_init_lora")
TOY_METRICS = ("final_loss", "drift", "steps_to_threshold", "update_norm")


def entropy_rank(sigma: np.ndarray) -> float:
    p = sigma / sigma.sum()
    p = p[p > 0]
    return float(np.exp(-np.sum(p * np.log(p))))


def stable_rank(sigma: np.ndarray) -> float:
    return float(np.sum(sigma / sigma[0]))


def _round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5))


def reference(w_dir: Path, dw_dir: Path, residual_sigma: bool) -> dict:
    """Per layer: sigma, both ranks, r, selected, protected, projections.

    Plain lists and numbers, so the reference can be stored as JSON.
    """
    weights, residuals = read_bundle(w_dir), read_bundle(dw_dir)
    ref = {}
    for name in sorted(weights):
        w, dw = weights[name], residuals[name]
        u, sigma, vt = np.linalg.svd(w, full_matrices=False)
        k = sigma.shape[0]
        proj = np.abs(np.einsum("mi,mi->i", u, dw @ vt.T))
        ent, st = entropy_rank(sigma), stable_rank(sigma)
        r = max(MIN_RANK, min(_round_half_away(round(ALPHA * ent, 12)),
                              math.floor(MAX_RANK_FRACTION * k)))
        selected = sorted(int(i) + 1 for i in np.argsort(-proj, kind="stable")[:r])
        cutoff = min(k, math.ceil(round(st, 12)))
        entry = {
            "shape": list(w.shape), "sigma": sigma.tolist(), "entropy_rank": ent,
            "stable_rank": st, "projection": proj.tolist(), "r": r, "selected": selected,
            "protected": [i for i in range(1, cutoff + 1) if i not in set(selected)],
        }
        if residual_sigma:
            rs = np.linalg.svd(dw, compute_uv=False)
            entry.update(residual_sigma=rs.tolist(), residual_entropy_rank=entropy_rank(rs),
                         residual_stable_rank=stable_rank(rs))
        ref[name] = entry
    return ref


def check_stm_init(out_dir: Path, stdout: str, w_dir: Path, ref: dict) -> list[str]:
    problems = []
    weights = read_bundle(w_dir)
    try:
        outputs = read_bundle(out_dir)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output bundle: {exc}"]
    expected_total = 0
    for name, want in ref.items():
        try:
            plan = json.loads((out_dir / f"{name}.plan.json").read_text())
            w0, b, a = (outputs[f"{name}.{part}"] for part in ("W0", "B", "A"))
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"{name}: missing output ({exc})")
            continue
        w = weights[name]
        err = np.linalg.norm(w0 + b @ a - w) / np.linalg.norm(w)
        if not err <= INIT_TOLERANCE:
            problems.append(f"{name}: init residual {err:.3e} > {INIT_TOLERANCE}")
        if set(plan["selected"]) & set(plan["protected"]):
            problems.append(f"{name}: selected and protected sets overlap")
        cap = math.floor(MAX_RANK_FRACTION * min(want["shape"]))
        if not MIN_RANK <= plan["r"] <= cap:
            problems.append(f"{name}: r={plan['r']} outside [{MIN_RANK}, {cap}]")
        if plan["r"] != want["r"] or b.shape[1] != want["r"] or a.shape[0] != want["r"]:
            problems.append(f"{name}: r={plan['r']} (B {b.shape}, A {a.shape}), "
                            f"reference {want['r']}")
        if plan["selected"] != want["selected"]:
            problems.append(f"{name}: selection differs from the reference top-r")
        if plan["protected"] != want["protected"]:
            problems.append(f"{name}: protected set differs from the reference")
        expected_total += want["r"] * sum(want["shape"])
    match = re.search(r"trainable parameters: (\d+)", stdout)
    if match is None or int(match.group(1)) != expected_total:
        problems.append(f"printed parameter total {match and match.group(1)}, "
                        f"expected sum r(m+n) = {expected_total}")
    return problems


def check_spectra(report: Path, ref: dict) -> list[str]:
    try:
        with open(report, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        return [f"unreadable report: {exc}"]
    expected_rows = sum(len(e["sigma"]) for e in ref.values())
    if len(rows) != expected_rows:
        return [f"report has {len(rows)} rows, expected {expected_rows}"]
    problems = []
    index = 0
    for name, want in ref.items():
        k = len(want["sigma"])
        layer_rows = rows[index:index + k]
        index += k
        columns = {c: np.asarray(want[c]) for c in ("sigma", "residual_sigma", "projection")}
        try:
            if [r["name"] for r in layer_rows] != [name] * k or \
                    [int(r["component"]) for r in layer_rows] != list(range(1, k + 1)):
                problems.append(f"{name}: rows out of order")
                continue
            for col, values in columns.items():
                got = np.array([float(r[col]) for r in layer_rows])
                worst = np.max(np.abs(got - values)) / values.max()
                if not worst <= SPECTRA_RTOL:
                    problems.append(f"{name}: {col} deviates by {worst:.2e} of its maximum")
            for col in ("entropy_rank", "stable_rank",
                        "residual_entropy_rank", "residual_stable_rank"):
                got = {float(r[col]) for r in layer_rows}
                if len(got) != 1 or not abs(got.pop() - want[col]) <= SPECTRA_RTOL * want[col]:
                    problems.append(f"{name}: {col} differs from the reference")
        except (KeyError, ValueError) as exc:
            problems.append(f"{name}: malformed row ({exc})")
    return problems


def check_train_toy(report: Path) -> list[str]:
    try:
        with open(report, newline="", encoding="utf-8") as fh:
            rows = {r["method"]: r for r in csv.DictReader(fh)}
    except (OSError, KeyError) as exc:
        return [f"unreadable report: {exc}"]
    problems = []
    for method in TOY_METHODS:
        if method not in rows:
            problems.append(f"missing method row {method!r}")
            continue
        for metric in TOY_METRICS:
            try:
                ok = math.isfinite(float(rows[method][metric]))
            except (KeyError, ValueError):
                ok = False
            if not ok:
                problems.append(f"{method}: {metric}={rows[method].get(metric)!r} not finite")
    if "stm" in rows and rows["stm"].get("recall") != "1.0":
        problems.append(f"stm recall {rows['stm'].get('recall')!r}, expected 1.0")
    return problems
