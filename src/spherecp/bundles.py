"""Input model: a vector bundle over a sphere, given by K-class data.

A bundle enters the calculus through three integers: the sphere
dimension ``n``, the fiber rank ``d`` (at least 2 -- line bundles are
out of scope), and an ``euler_param`` c giving the coefficient of the
reduced generator in the bundle's K-class ``d + c·λ``.  Over odd
spheres the reduced K-group vanishes, so c must be 0 there.

The name ``euler_param`` is deliberate: c parametrizes the K-class, and
nothing here decides whether an honest geometric bundle realizes that
class over the given sphere.  Reports downstream repeat this caveat.

Building a :class:`SphereBundleSpec` runs :func:`validate`, the one
place its fields are checked: every later stage (the K-class in
:mod:`spherecp.ktheory`, the K-groups in :mod:`spherecp.pimsner`, the
reports in :mod:`spherecp.classify`) reads them unchecked.  This module
imports nothing from those stages.
"""

from __future__ import annotations

import codecs
import io
import json
import os
import re
import stat
from collections import Counter, namedtuple
from pathlib import Path

from .fgab import SpherecpInputError, _Checked, _int_text, _literal_int, _require_int

__all__ = [
    "SphereBundleSpec",
    "BundleSpecError",
    "NonpositiveDimension",
    "RankTooSmall",
    "OddSphereNonzeroClass",
    "SpecFormatError",
    "SPEC_TEXT_BUDGET",
    "validate",
    "parse_spec",
    "load_spec",
    "spec_to_dict",
]


#: The longest bundle spec text, in characters, that :func:`parse_spec` reads;
#: :func:`load_spec` reads at most one character more of a file.  A spec of
#: three integers of ``LITERAL_DIGITS_BUDGET`` digits takes about 13 KB.
SPEC_TEXT_BUDGET = 262_144


class BundleSpecError(SpherecpInputError):
    """A bundle spec violates the domain restrictions."""


class NonpositiveDimension(BundleSpecError):
    pass


class RankTooSmall(BundleSpecError):
    pass


class OddSphereNonzeroClass(BundleSpecError):
    pass


class SpecFormatError(SpherecpInputError):
    """Bundle spec text is not well-formed (distinct from domain errors)."""


class SphereBundleSpec(_Checked, namedtuple("SphereBundleSpec", "sphere_dim rank euler_param")):
    """A bundle over S^sphere_dim of fiber rank ``rank`` and K-class
    ``rank + euler_param·λ``, all three ints; construction runs :func:`validate`."""

    __slots__ = ()

    def __new__(cls, sphere_dim: int, rank: int, euler_param: int = 0):
        return validate(tuple.__new__(cls, (sphere_dim, rank, euler_param)))


def validate(spec: SphereBundleSpec) -> SphereBundleSpec:
    """Check the domain restrictions; returns its argument unchanged on success."""
    # three exact ints, the common case, skip every isinstance call
    if not (spec.sphere_dim.__class__ is spec.rank.__class__ is spec.euler_param.__class__ is int):
        _require_int("sphere_dim", spec.sphere_dim, error=SpecFormatError)
        _require_int("rank", spec.rank, error=SpecFormatError)
        _require_int("euler parameter", spec.euler_param, error=SpecFormatError)
    if spec.sphere_dim < 1:
        raise NonpositiveDimension(f"sphere dimension must be >= 1, got {_int_text(spec.sphere_dim)}")
    if spec.rank < 2:
        raise RankTooSmall(f"fiber rank must be >= 2, got {_int_text(spec.rank)}")
    if spec.sphere_dim % 2 == 1 and spec.euler_param != 0:
        raise OddSphereNonzeroClass(
            f"S^{_int_text(spec.sphere_dim)} has trivial reduced K-theory, so the class of a "
            f"bundle is its rank; euler parameter must be 0, got {_int_text(spec.euler_param)}"
        )
    return spec


_JSON_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')


def _fields(pairs: list[tuple[str, object]]) -> dict:
    """The fields of a JSON object as a dict; a field that comes twice is refused."""
    repeated = [key for key, times in Counter(key for key, _ in pairs).items() if times > 1]
    if repeated:
        raise SpecFormatError(f"repeated bundle spec fields: {', '.join(repeated)}")
    return dict(pairs)


def parse_spec(text: str) -> SphereBundleSpec:
    """Parse a JSON bundle spec: {"sphere_dim": n, "rank": d, "euler": c}.

    ``euler`` is optional and defaults to 0.  Unknown fields, and a field
    given twice, are rejected to catch typos early.  An integer longer than
    :data:`~spherecp.fgab.LITERAL_DIGITS_BUDGET` digits is refused.
    Building the spec validates it, so a spec that violates the domain
    restrictions raises here.  A spec is one flat object, so text with a
    second bracket outside its strings is refused before ``json.loads``
    could exhaust the recursion limit on it.  Text longer than
    :data:`SPEC_TEXT_BUDGET` characters is refused before either.
    """
    if len(text) > SPEC_TEXT_BUDGET:
        raise SpecFormatError(f"bundle spec text exceeds SPEC_TEXT_BUDGET ({SPEC_TEXT_BUDGET} characters)")
    bare = _JSON_STRING.sub("", text)
    if bare.count("{") + bare.count("[") > 1:
        raise SpecFormatError("bundle spec nests deeper than one flat JSON object")
    try:
        raw = json.loads(text, object_pairs_hook=_fields,
                         parse_int=lambda lit: _literal_int(lit, None, SpecFormatError))
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"bundle spec is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise SpecFormatError("bundle spec must be a JSON object")
    unknown = sorted(set(raw) - {"sphere_dim", "rank", "euler"})
    if unknown:
        raise SpecFormatError(f"unknown bundle spec fields: {', '.join(unknown)}")
    for field in ("sphere_dim", "rank"):
        if field not in raw:
            raise SpecFormatError(f"bundle spec is missing required field '{field}'")
    return SphereBundleSpec(raw["sphere_dim"], raw["rank"], raw.get("euler", 0))


def _read_text(file) -> str:
    """At most ``SPEC_TEXT_BUDGET + 1`` characters of the text ``file``, decoded as ``Path.read_text`` decodes.

    The bytes under ``file`` are decoded here, in its encoding and with
    newlines translated, so that a decode error names its byte position
    from the start of the file, as ``read_text``'s does, not from the
    chunk it was found in.
    """
    decoder = io.IncrementalNewlineDecoder(codecs.getincrementaldecoder(file.encoding)(), translate=True)
    raw, text = b"", ""
    while len(text) <= SPEC_TEXT_BUDGET:
        chunk = file.buffer.read(SPEC_TEXT_BUDGET + 1)
        raw += chunk
        try:
            text += decoder.decode(chunk, final=not chunk)
        except UnicodeDecodeError:
            raw.decode(file.encoding)  # decoded at once, as read_text decodes, the bytes so far raise its error
            raise
        if not chunk:
            break
    return text[:SPEC_TEXT_BUDGET + 1]


def load_spec(path: str | Path) -> SphereBundleSpec:
    """Read a JSON bundle spec from a file, decoded as ``Path.read_text`` decodes it.

    At most one character past :data:`SPEC_TEXT_BUDGET` is read, so a longer
    file, or an endless one such as ``/dev/zero``, is refused without being read whole.
    The file opens without waiting for a writer, and its reads then wait as
    usual: a pipe that a process writes to is read to its end, and a FIFO
    that no process has open for writing is refused at once.
    """
    try:
        with open(path, opener=lambda name, flags: os.open(name, flags | os.O_NONBLOCK)) as file:
            os.set_blocking(file.fileno(), True)
            text = _read_text(file)
            if not text and stat.S_ISFIFO(os.fstat(file.fileno()).st_mode):
                raise SpecFormatError("bundle spec file is a FIFO with no writer")
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecFormatError(f"cannot read bundle spec file: {exc}") from None
    return parse_spec(text)


def spec_to_dict(spec: SphereBundleSpec) -> dict:
    """Echo a spec in the same shape the JSON file format uses."""
    return {"sphere_dim": spec.sphere_dim, "rank": spec.rank, "euler": spec.euler_param}
