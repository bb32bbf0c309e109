"""Loading of the versioned fixture data files.

All reference inputs (the vector field, expected chart fields, subring
generators, presentation relations, cohomology tables) ship as plain-text
data files in the polynomial grammar.  Tests may pass overrides mapping a
file name to patched text, so sensitivity checks can perturb a single
coefficient without touching the files on disk.
"""

from __future__ import annotations

import os
from collections import namedtuple

from .derivations import Derivation, parse_derivation
from .errors import ParseError
from .rings import DEGREVLEX, PolyRing, Polynomial, parse_poly

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

FIXTURE_FILES = (
    "vector_field.txt",
    "chart_fields.txt",
    "subring_generators.txt",
    "cohomology_tables.txt",
)

#: Chart identifiers in the fixed processing order.
CHARTS = ("x3", "x2", "x1")


def _read(name: str, overrides: dict[str, str] | None = None) -> str:
    if overrides and name in overrides:
        return overrides[name]
    with open(os.path.join(DATA_DIR, name)) as fh:
        return fh.read()


def strip_lines(text: str) -> list[str]:
    """The nonblank lines of ``text``, ``#`` comments cut, stripped."""
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def _sections(text: str) -> dict[str, list[str]]:
    """Split `[name]`-headed sections into name -> payload lines."""
    out: dict[str, list[str]] = {}
    current: list[str] | None = None
    for line in strip_lines(text):
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name in out:
                raise ParseError(f"duplicate section [{name}]")
            current = out[name] = []
        elif current is not None:
            current.append(line)
        else:
            raise ParseError(f"content before first section: {line!r}")
    return out


def keyvals(lines: list[str]) -> dict[str, str]:
    """``key = value`` lines as a dict, both sides stripped; a key may
    appear once."""
    out = {}
    for line in lines:
        if "=" not in line:
            raise ParseError(f"expected `key = value`, got {line!r}")
        key, value = (side.strip() for side in line.split("=", 1))
        if key in out:
            raise ParseError(f"repeated key {key!r}")
        out[key] = value
    return out


def _grid(lines: list[str]) -> dict[tuple[int, int], int]:
    """Rows printed top-down; the last line is vertical index 0."""
    rows = [[int(tok) for tok in line.split()] for line in lines]
    grid = {}
    height = len(rows)
    for r, row in enumerate(rows):
        j = height - 1 - r
        for i, value in enumerate(row):
            grid[(i, j)] = value
    return grid


class FixtureSet(namedtuple("FixtureSet", (
        "p",
        "ring",                 # homogeneous coordinate ring
        "field",                # the vector field
        "chart_vars",           # chart -> its variable names
        "chart_fields",         # chart -> expected image of the field
        "k1",                   # first degree-5 invariant
        "k2",                   # second degree-5 invariant
        "chart_gens",           # chart -> its two subring generators
        "presentation_ring",    # ambient ring for chart-x3 relations
        "presentation_rels",    # the two chart-x3 relations
        "hodge",                # kind -> dimension grid
        "de_rham"))):
    """Parsed reference data for one verification run (immutable)."""

    __slots__ = ()


def load_fixtures(overrides: dict[str, str] | None = None) -> FixtureSet:
    # vector field ------------------------------------------------------
    field_lines = strip_lines(_read("vector_field.txt", overrides))
    header = keyvals([l for l in field_lines if "->" not in l])
    p = int(header["p"])
    variables = tuple(header["vars"].split())
    ring = PolyRing(variables, p, DEGREVLEX)
    body = "\n".join(l for l in field_lines if "->" in l)
    field = parse_derivation(ring, body)

    # expected chart fields --------------------------------------------
    chart_vars: dict[str, tuple[str, ...]] = {}
    chart_fields: dict[str, Derivation] = {}
    for name, lines in _sections(_read("chart_fields.txt", overrides)).items():
        header = keyvals([l for l in lines if "->" not in l])
        cvars = tuple(header["vars"].split())
        cring = PolyRing(cvars, p, DEGREVLEX)
        chart_vars[name] = cvars
        chart_fields[name] = parse_derivation(
            cring, "\n".join(l for l in lines if "->" in l))

    # subring generators -------------------------------------------------
    sections = _sections(_read("subring_generators.txt", overrides))
    homog = keyvals(sections["homogeneous"])
    k1 = parse_poly(ring, homog["K1"])
    k2 = parse_poly(ring, homog["K2"])
    chart_gens: dict[str, tuple[Polynomial, Polynomial]] = {}
    for chart in CHARTS:
        vals = keyvals(sections[f"chart_{chart}"])
        cvars = tuple(vals["vars"].split())
        if chart in chart_vars and cvars != chart_vars[chart]:
            raise ParseError(f"chart {chart} variable mismatch across files")
        cring = PolyRing(cvars, p, DEGREVLEX)
        chart_gens[chart] = (parse_poly(cring, vals["gen1"]),
                             parse_poly(cring, vals["gen2"]))
    pres = keyvals(sections["presentation_x3"])
    pres_ring = PolyRing(tuple(pres["vars"].split()), p, DEGREVLEX)
    presentation_rels = (parse_poly(pres_ring, pres["rel1"]),
                         parse_poly(pres_ring, pres["rel2"]))

    # cohomology tables ---------------------------------------------------
    tables = _sections(_read("cohomology_tables.txt", overrides))
    hodge = {
        "singular": _grid(tables["singular_hodge"]),
        "supersingular": _grid(tables["supersingular_hodge"]),
    }
    de_rham = {int(k): int(v) for k, v in keyvals(tables["de_rham"]).items()}

    return FixtureSet(
        p=p, ring=ring, field=field,
        chart_vars=chart_vars, chart_fields=chart_fields,
        k1=k1, k2=k2, chart_gens=chart_gens,
        presentation_ring=pres_ring, presentation_rels=presentation_rels,
        hodge=hodge, de_rham=de_rham,
    )


def patched_text(name: str, old: str, new: str) -> str:
    """Original file text with exactly one occurrence of ``old`` replaced."""
    text = _read(name)
    count = text.count(old)
    if count != 1:
        raise ValueError(f"fragment occurs {count} times in {name}: {old!r}")
    return text.replace(old, new)
