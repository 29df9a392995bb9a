"""Bundled structures and links with recorded invariant values.

Ids are the data file stems under the versioned directory ``v1``:
singquandles ``X-Z4``, ``Y-Z4``, ``X-Z8-a``, ``X-Z8-b``; presentations
``1_1l``, ``1_1l-2gen``, ``6_11l``, ``K1``, ``K2``; PD codes ``<link>-pd``.
``expected()`` returns the recorded invariant values used by the
acceptance suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Union

from ..core import FiniteSingquandle
from ..diagram import SingularPD, parse_pd
from ..errors import UnknownIdError
from ..fileformats import load_singquandle
from ..presentation import SingPresentation, parse_presentation

_V1 = Path(__file__).parent / "v1"
_KINDS = {".sq": "singquandle", ".pres": "presentation", ".pd": "pd"}

Loaded = Union[FiniteSingquandle, SingPresentation, SingularPD]


@dataclass(frozen=True)
class CorpusEntry:
    id: str
    kind: str  # singquandle | presentation | pd
    path: Path


@lru_cache(maxsize=1)
def _index() -> dict[str, CorpusEntry]:
    entries = {}
    for p in sorted(_V1.iterdir()):
        kind = _KINDS.get(p.suffix)
        if kind:
            entries[p.stem] = CorpusEntry(p.stem, kind, p)
    return entries


def ids() -> tuple[str, ...]:
    return tuple(_index())


def entry(corpus_id: str) -> CorpusEntry:
    try:
        return _index()[corpus_id]
    except KeyError:
        raise UnknownIdError(
            f"unknown corpus id {corpus_id!r}; available: {', '.join(ids())}") from None


@lru_cache(maxsize=None)
def load(corpus_id: str) -> Loaded:
    """Parse (and for singquandles, validate) the corpus entry.  Repeated
    loads hand back the same object."""
    e = entry(corpus_id)
    if e.kind == "singquandle":
        return load_singquandle(e.path)
    text = e.path.read_text(encoding="utf-8")
    if e.kind == "presentation":
        return parse_presentation(text)
    return parse_pd(text)


@lru_cache(maxsize=1)
def expected() -> dict:
    """Recorded invariant values, keyed by corpus id."""
    with open(_V1 / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)
