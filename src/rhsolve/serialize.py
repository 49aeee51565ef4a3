"""Deterministic result files: JSON summaries and plot-ready CSV tables.

Result JSON is byte-identical for identical inputs: keys are sorted, floats
use shortest round-trip decimals, and anything time-dependent goes into a
separate metadata file.
"""

import datetime
import json
import os

import numpy as np

from .boundary import BoundaryTrace, winding_number, winding_numbers


def dump_json(obj) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=True) + "\n"


def trace_csv(trace: BoundaryTrace) -> str:
    """CSV with header theta,re,im; radians and 17-significant-digit floats."""
    lines = ["theta,re,im"]
    for theta, value in zip(trace.grid.theta, trace.values):
        lines.append(f"{theta:.17g},{value.real:.17g},{value.imag:.17g}")
    return "\n".join(lines) + "\n"


def history_csv(run) -> str:
    """CSV of the residual history, one row per Newton iterate."""
    lines = ["iteration,residual"]
    norms = () if run is None else run.residual_norms
    for i, r in enumerate(norms):
        lines.append(f"{i},{float(r):.17g}")
    return "\n".join(lines) + "\n"


def _finite_or_none(value):
    value = float(value)
    return value if np.isfinite(value) else None


def certificate_dict(certificate):
    """Certificate block embedded in solution summaries; a non-finite constant is null."""
    if certificate is None:
        return None
    return {
        "omega1": _finite_or_none(certificate.omega1),
        "omega2": _finite_or_none(certificate.omega2),
        "omega3": _finite_or_none(certificate.omega3),
        "product": _finite_or_none(certificate.product),
        "identity_defect": _finite_or_none(certificate.identity_defect),
        "certified": bool(certificate.certified),
        "fallback": False,  # no solver has a dense fallback; result files keep the key
    }


def _zeros_list(zeros):
    ordered = sorted(zeros, key=lambda z: (round(np.angle(z.position), 12), abs(z.position)))
    return [
        {
            "re": float(z.position.real),
            "im": float(z.position.imag),
            "mult": int(z.multiplicity),
        }
        for z in ordered
    ]


def disc_result_dict(solution) -> dict:
    run = solution.run
    return {
        "winding": int(winding_number(solution.f_trace)),
        "residual_sup": float(solution.residual_sup),
        "newton_history": [float(r) for r in (() if run is None else run.residual_norms)],
        "certificate": certificate_dict(None if run is None else run.certificate),
    }


def annulus_result_dict(solution) -> dict:
    """Summary shared by the Newton and closed-form annulus solvers."""
    gamma0, gamma1_disc = winding_numbers((solution.outer_trace, solution.inner_trace))
    glue = getattr(solution, "glue", None)
    run = getattr(solution, "run", None)
    r0, r1 = solution.residual_by_boundary
    return {
        "q": float(solution.q),
        "windings": {
            "gamma0": gamma0,
            "gamma1_coherent": -gamma1_disc,
            "gamma1_disc": gamma1_disc,
        },
        "zeros": _zeros_list(solution.zeros),
        "residuals": {"gamma0": float(r0), "gamma1": float(r1)},
        "glue": None
        if glue is None
        else {"pre_newton_residual": float(glue.pre_newton_residual)},
        "certificate": certificate_dict(None if run is None else run.certificate),
    }


def identity_report_dict(report) -> dict:
    zeros = []
    for zero, h1 in zip(report.zeros_used, report.h1_values):
        zeros.append(
            {
                "re": float(zero.position.real),
                "im": float(zero.position.imag),
                "h1": float(h1),
            }
        )
    zeros.sort(key=lambda item: (round(np.arctan2(item["im"], item["re"]), 12)))
    return {
        "lhs": float(report.lhs),
        "rhs": float(report.rhs),
        "diff": float(report.diff),
        "k1": int(report.k1),
        "zeros": zeros,
    }


def surjectivity_dict(cases) -> dict:
    return {
        "cases": [
            {
                "target": float(c.target),
                "realized": float(c.realized),
                "deviation": float(c.deviation),
                "zero_count": int(c.zero_count),
                "k1": int(c.k1),
                "modulus_error": float(c.modulus_error),
            }
            for c in cases
        ]
    }


def sweep_csv(rows, fitted_slope=None) -> str:
    """Decay table: n and the pre-Newton residual, then a fit footer row."""
    lines = ["n,pre_newton_residual,fitted_slope"]
    for n, pre in rows:
        lines.append(f"{int(n)},{float(pre):.17g},")
    if fitted_slope is not None:
        lines.append(f"fit,,{float(fitted_slope):.17g}")
    return "\n".join(lines) + "\n"


def write_text(directory: str, name: str, text: str) -> str:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name)
    with open(path, "w") as handle:
        handle.write(text)
    return path


def write_metadata(directory: str, command: str) -> str:
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return write_text(
        directory, "metadata.json", dump_json({"command": command, "created": stamp})
    )
