"""``.kir`` reproducer files: found bugs stay fixed.

A corpus entry is one self-contained, human-readable file holding a
kernel in the :mod:`repro.ir.text` format plus the launch environment
needed to replay it, encoded in ``;`` comment *directives* that the
kernel parser already ignores::

    ; repro.fuzz reproducer
    ; seed: 1234
    ; engines: fermi vgiw
    ; status: mismatch
    ; note: shift-amount masking lost by the unroller
    ; n_threads: 2
    ; mem_words: 272
    ; input_base: 0
    ; input: 12 7.5 3 0.25 ...
    ; param in_: 0
    ; param out: 64
    kernel fuzz_... (in_, out, n, k1, k2, f1) float(f1)
    ...

Unknown ``key: value`` directives are preserved in ``ReplayCase.meta``,
so triage notes and campaign provenance travel with the reproducer.
The files live under ``tests/corpus/`` and are replayed against every
engine by ``tests/test_fuzz_corpus.py`` — committing a minimised
reproducer is how a fuzz finding becomes a permanent regression test.

:class:`ReplayCase` quacks like a :class:`~repro.fuzz.generate.FuzzCase`
(``kernel`` / ``params`` / ``n_threads`` / ``seed`` / ``build_memory``),
so :func:`repro.fuzz.oracle.run_case` replays it unchanged.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.ir.kernel import Kernel
from repro.ir.text import ParseError, kernel_to_text, parse_kernel
from repro.memory.image import MemoryImage

__all__ = [
    "ReplayCase",
    "load_corpus_case",
    "load_corpus_dir",
    "save_corpus_case",
]

Number = Union[int, float]

#: Values per ``; input:`` line (keeps the files diff-friendly).
_INPUT_CHUNK = 8


@dataclass
class ReplayCase:
    """One corpus entry, ready to run through the differential oracle."""

    name: str
    kernel: Kernel
    params: Dict[str, Number]
    n_threads: int
    mem_words: int
    input_base: int = 0
    input_values: Tuple[float, ...] = ()
    seed: int = 0
    #: non-structural directives (engines, status, note, provenance...)
    meta: Dict[str, str] = field(default_factory=dict)

    def build_memory(self) -> MemoryImage:
        """The initial memory image for a replay."""
        memory = MemoryImage(self.mem_words)
        if self.input_values:
            memory.write_block(self.input_base, list(self.input_values))
        return memory


def _format_number(value: Number) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _parse_number(text: str) -> Number:
    try:
        return int(text)
    except ValueError:
        return float(text)


def save_corpus_case(path: str, case, meta: Optional[Dict[str, str]] = None,
                     ) -> None:
    """Write ``case`` (a FuzzCase or ReplayCase) as a ``.kir`` file.

    ``meta`` entries become extra directives; ``case.meta`` (when
    present) is merged underneath them.
    """
    directives: Dict[str, str] = {}
    directives.update(getattr(case, "meta", None) or {})
    directives.update(meta or {})

    lines: List[str] = ["; repro.fuzz reproducer"]
    lines.append(f"; seed: {int(getattr(case, 'seed', 0))}")
    for key, value in directives.items():
        lines.append(f"; {key}: {value}")
    lines.append(f"; n_threads: {int(case.n_threads)}")
    lines.append(f"; mem_words: {int(case.mem_words)}")
    lines.append(f"; input_base: {int(case.input_base)}")
    values = list(case.input_values)
    for start in range(0, len(values), _INPUT_CHUNK):
        chunk = values[start:start + _INPUT_CHUNK]
        lines.append(
            "; input: " + " ".join(_format_number(float(v)) for v in chunk)
        )
    for name in case.kernel.params:
        lines.append(f"; param {name}: {_format_number(case.params[name])}")
    lines.append(kernel_to_text(case.kernel).rstrip("\n"))
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


def load_corpus_case(path: str) -> ReplayCase:
    """Parse one ``.kir`` file back into a :class:`ReplayCase`."""
    with open(path) as fh:
        text = fh.read()

    seed = 0
    n_threads: Optional[int] = None
    mem_words: Optional[int] = None
    input_base = 0
    input_values: List[float] = []
    params: Dict[str, Number] = {}
    meta: Dict[str, str] = {}

    for line in text.splitlines():
        stripped = line.strip()
        if not stripped.startswith(";"):
            continue
        body = stripped[1:].strip()
        if ":" not in body:
            continue  # banner line
        key, _, value = body.partition(":")
        key, value = key.strip(), value.strip()
        if key == "seed":
            seed = int(value)
        elif key == "n_threads":
            n_threads = int(value)
        elif key == "mem_words":
            mem_words = int(value)
        elif key == "input_base":
            input_base = int(value)
        elif key == "input":
            input_values.extend(float(v) for v in value.split())
        elif key.startswith("param "):
            params[key[len("param "):].strip()] = _parse_number(value)
        else:
            meta[key] = value

    kernel = parse_kernel(text)
    name = os.path.splitext(os.path.basename(path))[0]
    if n_threads is None:
        raise ParseError(0, f"{path}: missing '; n_threads:' directive")
    if mem_words is None:
        raise ParseError(0, f"{path}: missing '; mem_words:' directive")
    missing = [p for p in kernel.params if p not in params]
    if missing:
        raise ParseError(
            0, f"{path}: missing '; param NAME:' directives for {missing}"
        )
    return ReplayCase(
        name=name,
        kernel=kernel,
        params=params,
        n_threads=n_threads,
        mem_words=mem_words,
        input_base=input_base,
        input_values=tuple(input_values),
        seed=seed,
        meta=meta,
    )


def load_corpus_dir(directory: str) -> List[ReplayCase]:
    """Load every ``*.kir`` under ``directory``, sorted by filename."""
    if not os.path.isdir(directory):
        return []
    cases = []
    for entry in sorted(os.listdir(directory)):
        if entry.endswith(".kir"):
            cases.append(load_corpus_case(os.path.join(directory, entry)))
    return cases
