"""The metrics registry: counters, gauges, histograms, and their exports.

One :class:`MetricsRegistry` describes one run (or one aggregation over
many runs) as a set of *metric families*.  A family has a name, a type
(``counter`` / ``gauge`` / ``histogram``), one line of help text, and a
set of samples keyed by label sets; a counter sample may additionally
carry an *exemplar* — a label set pointing back into the run's trace
(``{"trace_seq": "17"}``), which is how a number in a dashboard stays
one click away from the event that produced it.

Two deterministic serialisations:

- :meth:`MetricsRegistry.to_openmetrics` — the OpenMetrics text format
  (``# TYPE``/``# HELP`` headers, ``_total`` counter suffix, exemplar
  ``# {...}`` syntax, ``# EOF`` terminator).  :func:`parse_openmetrics`
  is the matching reader; the CLI's ``--metrics`` output round-trips
  through it in the tests.
- :meth:`MetricsRegistry.to_json` — a nested plain-dict form for
  ``--metrics-out file.json`` and for the byte-identity tests (the dict
  is fully ordered: families, samples, and labels are all sorted).

Determinism is a load-bearing property here, not a nicety: the batch
layer's guarantee is that a cache-served outcome is indistinguishable
from a live one, and that extends to metrics — so every export sorts
every level and no export embeds a timestamp or an unordered id.
"""

from __future__ import annotations

import math
import re
from typing import Any, Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "parse_openmetrics",
]

_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram bucket bounds (powers of four: wide dynamic range
#: with few buckets; run quantities here span 1..~10^5 trace steps).
DEFAULT_BUCKETS = (1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0)


def _labels_key(labels: Mapping[str, Any] | None) -> tuple[tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _fmt_value(v: float) -> str:
    if v != v:  # NaN
        return "NaN"
    if v == math.inf:
        return "+Inf"
    if v == -math.inf:
        return "-Inf"
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, int) or (isinstance(v, float) and v.is_integer()):
        return str(int(v))
    return repr(float(v))


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt_labels(key: tuple[tuple[str, str], ...]) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in key)
    return "{" + inner + "}"


class _Family:
    """Shared machinery of one metric family (name, help, samples)."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, unit: str = ""):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help_text
        self.unit = unit
        #: label-key tuple -> value (floats; counters stay monotone).
        self.samples: dict[tuple[tuple[str, str], ...], float] = {}

    def labels_seen(self) -> list[tuple[tuple[str, str], ...]]:
        """Every label-key tuple with a sample, sorted (the export order)."""
        return sorted(self.samples)

    def value(self, labels: Mapping[str, Any] | None = None) -> float:
        """This family's sample for ``labels`` (0.0 when absent)."""
        return self.samples.get(_labels_key(labels), 0.0)

    def total(self) -> float:
        """Sum across every label set (the family's scalar collapse)."""
        return sum(self.samples.values())


class Counter(_Family):
    """Monotone event count, optionally with per-sample exemplars."""

    kind = "counter"

    def __init__(self, name: str, help_text: str, unit: str = ""):
        super().__init__(name, help_text, unit)
        #: label-key tuple -> (exemplar labels, exemplar value).
        self.exemplars: dict[
            tuple[tuple[str, str], ...], tuple[tuple[tuple[str, str], ...], float]
        ] = {}

    def inc(
        self,
        labels: Mapping[str, Any] | None = None,
        amount: float = 1.0,
        *,
        exemplar: Mapping[str, Any] | None = None,
    ) -> None:
        """Add ``amount`` (>= 0) to the sample for ``labels``.

        The first call that supplies an ``exemplar`` pins it; later
        exemplars for the same label set are ignored (first-wins keeps
        the export deterministic).
        """
        if amount < 0:
            raise ValueError("counters only go up")
        key = _labels_key(labels)
        self.samples[key] = self.samples.get(key, 0.0) + amount
        if exemplar is not None and key not in self.exemplars:
            # First exemplar wins: it names the *earliest* linked trace
            # event, which is the deterministic choice.
            self.exemplars[key] = (_labels_key(exemplar), amount)


class Gauge(_Family):
    """A value that can go anywhere (fractions, ratios, sizes)."""

    kind = "gauge"

    def set(self, value: float, labels: Mapping[str, Any] | None = None) -> None:
        """Replace the sample for ``labels`` with ``value``."""
        self.samples[_labels_key(labels)] = float(value)

    def add(self, amount: float, labels: Mapping[str, Any] | None = None) -> None:
        """Shift the sample for ``labels`` by ``amount`` (may be negative)."""
        key = _labels_key(labels)
        self.samples[key] = self.samples.get(key, 0.0) + amount


class Histogram:
    """Cumulative-bucket histogram (OpenMetrics semantics).

    Stored per label set as ``(bucket_counts, sum, count)``; bucket
    bounds are fixed at construction and shared by every label set (the
    OpenMetrics text format requires it).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        *,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        unit: str = "",
    ):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help_text
        self.unit = unit
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds: tuple[float, ...] = tuple(bounds)
        self.samples: dict[
            tuple[tuple[str, str], ...], tuple[list[int], float, int]
        ] = {}

    def observe(self, value: float, labels: Mapping[str, Any] | None = None) -> None:
        """Record ``value``: bump every cumulative bucket it fits in."""
        key = _labels_key(labels)
        entry = self.samples.get(key)
        if entry is None:
            entry = ([0] * len(self.bounds), 0.0, 0)
        counts, total, n = entry
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                counts[i] += 1
        self.samples[key] = (counts, total + float(value), n + 1)

    def labels_seen(self) -> list[tuple[tuple[str, str], ...]]:
        """Every label-key tuple with a sample, sorted (the export order)."""
        return sorted(self.samples)

    def count(self, labels: Mapping[str, Any] | None = None) -> int:
        """How many observations the ``labels`` sample holds (0 if none)."""
        entry = self.samples.get(_labels_key(labels))
        return entry[2] if entry else 0

    def sum(self, labels: Mapping[str, Any] | None = None) -> float:
        """Sum of every value observed for ``labels`` (0.0 if none)."""
        entry = self.samples.get(_labels_key(labels))
        return entry[1] if entry else 0.0


class MetricsRegistry:
    """An ordered collection of metric families for one run/aggregation.

    ``info`` carries identity labels (engine version and fingerprint,
    patternlet, seed, ...) exported as the conventional OpenMetrics
    ``<prefix>_engine_info`` gauge-valued info metric and as the JSON
    header — every artifact stays attributable to an exact engine build.
    """

    def __init__(self, *, prefix: str = "patternlet"):
        if not _NAME_RE.match(prefix):
            raise ValueError(f"invalid metric prefix {prefix!r}")
        self.prefix = prefix
        self.info: dict[str, str] = {}
        self._families: dict[str, Counter | Gauge | Histogram] = {}

    # -- construction --------------------------------------------------------

    def _add(self, family: Counter | Gauge | Histogram) -> Any:
        if family.name in self._families:
            raise ValueError(f"duplicate metric family {family.name!r}")
        self._families[family.name] = family
        return family

    def counter(self, name: str, help_text: str, unit: str = "") -> Counter:
        """Get or create the :class:`Counter` family called ``name``."""
        existing = self._families.get(name)
        if isinstance(existing, Counter):
            return existing
        return self._add(Counter(name, help_text, unit))

    def gauge(self, name: str, help_text: str, unit: str = "") -> Gauge:
        """Get or create the :class:`Gauge` family called ``name``."""
        existing = self._families.get(name)
        if isinstance(existing, Gauge):
            return existing
        return self._add(Gauge(name, help_text, unit))

    def histogram(
        self,
        name: str,
        help_text: str,
        *,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        unit: str = "",
    ) -> Histogram:
        """Get or create the :class:`Histogram` family called ``name``."""
        existing = self._families.get(name)
        if isinstance(existing, Histogram):
            return existing
        return self._add(Histogram(name, help_text, buckets=buckets, unit=unit))

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        """The family called ``name``, or None if never registered."""
        return self._families.get(name)

    def families(self) -> list[Counter | Gauge | Histogram]:
        """Every family, name-sorted (the export order)."""
        return [self._families[k] for k in sorted(self._families)]

    def __len__(self) -> int:
        return len(self._families)

    def __contains__(self, name: str) -> bool:
        return name in self._families

    # -- exports -------------------------------------------------------------

    def to_openmetrics(self) -> str:
        """The registry in OpenMetrics text format (``# EOF``-terminated)."""
        out: list[str] = []
        if self.info:
            name = f"{self.prefix}_engine"
            out.append(f"# TYPE {name} info")
            out.append(f"# HELP {name} Engine build identity.")
            key = _labels_key(self.info)
            out.append(f"{name}_info{_fmt_labels(key)} 1")
        for fam in self.families():
            full = f"{self.prefix}_{fam.name}"
            out.append(f"# TYPE {full} {fam.kind}")
            if fam.unit:
                out.append(f"# UNIT {full} {fam.unit}")
            out.append(f"# HELP {full} {_escape(fam.help)}")
            if isinstance(fam, Histogram):
                for key in fam.labels_seen():
                    counts, total, n = fam.samples[key]
                    for bound, c in zip(fam.bounds, counts):
                        bkey = key + (("le", _fmt_value(bound)),)
                        out.append(f"{full}_bucket{_fmt_labels(bkey)} {c}")
                    ikey = key + (("le", "+Inf"),)
                    out.append(f"{full}_bucket{_fmt_labels(ikey)} {n}")
                    out.append(f"{full}_count{_fmt_labels(key)} {n}")
                    out.append(f"{full}_sum{_fmt_labels(key)} {_fmt_value(total)}")
                continue
            suffix = "_total" if fam.kind == "counter" else ""
            for key in fam.labels_seen():
                line = f"{full}{suffix}{_fmt_labels(key)} {_fmt_value(fam.samples[key])}"
                if isinstance(fam, Counter):
                    ex = fam.exemplars.get(key)
                    if ex is not None:
                        ex_labels, ex_value = ex
                        line += f" # {_fmt_labels(ex_labels)} {_fmt_value(ex_value)}"
                out.append(line)
        out.append("# EOF")
        return "\n".join(out) + "\n"

    def to_json(self) -> dict[str, Any]:
        """Nested plain-dict export; fully ordered, so byte-stable."""
        families: dict[str, Any] = {}
        for fam in self.families():
            entry: dict[str, Any] = {"type": fam.kind, "help": fam.help}
            if fam.unit:
                entry["unit"] = fam.unit
            if isinstance(fam, Histogram):
                entry["buckets"] = list(fam.bounds)
                entry["samples"] = [
                    {
                        "labels": dict(key),
                        "bucket_counts": list(fam.samples[key][0]),
                        "sum": fam.samples[key][1],
                        "count": fam.samples[key][2],
                    }
                    for key in fam.labels_seen()
                ]
            else:
                samples = []
                for key in fam.labels_seen():
                    sample: dict[str, Any] = {
                        "labels": dict(key),
                        "value": fam.samples[key],
                    }
                    if isinstance(fam, Counter):
                        ex = fam.exemplars.get(key)
                        if ex is not None:
                            sample["exemplar"] = {
                                "labels": dict(ex[0]),
                                "value": ex[1],
                            }
                    samples.append(sample)
                entry["samples"] = samples
            families[fam.name] = entry
        return {
            "schema": 1,
            "prefix": self.prefix,
            "engine": dict(sorted(self.info.items())),
            "families": families,
        }


# -- the OpenMetrics reader ---------------------------------------------------

# The label-set groups must not stop at a literal ``}`` *inside* a
# quoted label value, so they consume whole quoted strings as units.
_LABELS_BODY = r'(?:[^{}"]|"(?:[^"\\]|\\.)*")*'
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)"
    r"(?:\{(?P<labels>" + _LABELS_BODY + r")\})?"
    r"\s+(?P<value>[^\s#]+)"
    r"(?:\s+#\s+\{(?P<ex_labels>" + _LABELS_BODY + r")\}\s+(?P<ex_value>\S+))?"
    r"\s*$"
)

_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n"}
_ESCAPE_SEQ_RE = re.compile(r"\\(.)")


def _unescape(value: str) -> str:
    # One pass, so ``\\n`` (escaped backslash, then a literal n) decodes
    # to ``\n`` the two characters — not to a newline, which is what a
    # chain of str.replace calls would produce.
    return _ESCAPE_SEQ_RE.sub(
        lambda m: _UNESCAPES.get(m.group(1), "\\" + m.group(1)), value
    )


def _parse_labels(body: str | None) -> dict[str, str]:
    if not body:
        return {}
    return {m.group(1): _unescape(m.group(2)) for m in _LABEL_RE.finditer(body)}


def _parse_num(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    return float(text)


def parse_openmetrics(text: str) -> dict[str, Any]:
    """Parse OpenMetrics text into ``{name: {type, help, samples}}``.

    ``samples`` is a list of ``{labels, value[, exemplar]}`` dicts in
    file order, with counter ``_total`` / histogram ``_bucket``/``_count``
    /``_sum`` suffixes folded back onto their family (the suffix is kept
    per-sample as ``suffix``).  Raises :class:`ValueError` on any line
    that is neither a comment, a blank, nor a well-formed sample, and on
    a missing ``# EOF`` terminator — the CI smoke step relies on this
    strictness to catch a malformed export.
    """
    families: dict[str, Any] = {}
    declared: dict[str, str] = {}  # full metric name -> type
    saw_eof = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if saw_eof:
            raise ValueError(f"line {lineno}: content after # EOF")
        if line == "# EOF":
            saw_eof = True
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 4 and parts[1] in ("TYPE", "HELP", "UNIT"):
                _, keyword, name, rest = parts
                fam = families.setdefault(
                    name, {"type": "untyped", "help": "", "unit": "", "samples": []}
                )
                if keyword == "TYPE":
                    fam["type"] = rest
                    declared[name] = rest
                elif keyword == "HELP":
                    fam["help"] = _unescape(rest)
                else:
                    fam["unit"] = rest
                continue
            raise ValueError(f"line {lineno}: malformed comment {raw!r}")
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise ValueError(f"line {lineno}: malformed sample {raw!r}")
        name = m.group("name")
        suffix = ""
        base = name
        for cand in ("_total", "_bucket", "_count", "_sum", "_info"):
            trimmed = name[: -len(cand)]
            if name.endswith(cand) and (
                trimmed in declared or trimmed in families
            ):
                base, suffix = trimmed, cand
                break
        fam = families.setdefault(
            base, {"type": "untyped", "help": "", "unit": "", "samples": []}
        )
        try:
            sample: dict[str, Any] = {
                "labels": _parse_labels(m.group("labels")),
                "value": _parse_num(m.group("value")),
            }
            if suffix:
                sample["suffix"] = suffix
            if m.group("ex_labels") is not None:
                sample["exemplar"] = {
                    "labels": _parse_labels(m.group("ex_labels")),
                    "value": _parse_num(m.group("ex_value")),
                }
        except ValueError as exc:
            raise ValueError(f"line {lineno}: malformed sample {raw!r}") from exc
        fam["samples"].append(sample)
    if not saw_eof:
        raise ValueError("missing # EOF terminator")
    return families
