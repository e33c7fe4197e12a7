"""In-memory spans around the library's public functions, for the traced run.

Each traced function is replaced by a wrapper at every module binding that
names it (a function imported by name into another module is bound there
too), so nested calls are caught.  A span's self time is its duration minus
the time of its child spans.  Hot leaves keep only a call count and summed
time; every other call also leaves a span (name, request, id, parent, start,
end), kept in memory until `write()`.
"""

from __future__ import annotations

import functools
import gzip
import json
from contextlib import contextmanager
from time import perf_counter

# (module, function, hot): hot functions are counted, not given spans
TRACED = (
    ("arith", "factorize", False),
    ("arith", "is_prime", True),
    ("arith", "padic_valuation", True),
    ("padic", "hilbert_symbol", False),
    ("padic", "hilbert_product", False),
    ("padic", "qp_solvable_oracle", False),
    ("quaternion", "represent", False),
    ("quaternion", "is_split_quaternion_Q", False),
    ("quaternion", "congruence_criterion", False),
    ("quaternion", "verify_equivalence", False),
    ("cyclotomic", "factor_cyclotomic_mod_p", False),
    ("cyclotomic", "find_prime_ideal", False),
    ("cyclotomic", "power_residue_character", False),
    ("localnorm", "symbol_algebra_norm_trace", False),
    ("cli", "main", False),
)

MODULES = ("arith", "padic", "quaternion", "cyclotomic", "localnorm", "cli")


def _character_label(args) -> str:
    # self time of the character is split by the kind of alpha
    kind = "int" if isinstance(args[0], int) else "cyclotomic_int"
    return f"cyclotomic.power_residue_character.{kind}"


class Tracer:
    def __init__(self, bs):
        self.bs = bs
        self.stats: dict[str, list] = {}  # label -> [calls, self seconds]
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [child seconds, span id] per open call
        self._next_id = 0
        self._request = None
        self._patched: list[tuple] = []

    def install(self) -> None:
        modules = [self.bs] + [getattr(self.bs, m) for m in MODULES]
        for mod_name, fn_name, hot in TRACED:
            original = getattr(getattr(self.bs, mod_name), fn_name)
            label_of = _character_label if fn_name == "power_residue_character" else None
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, hot, label_of)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, label, fn, hot, label_of):
        stats, spans, stack = self.stats, self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = label_of(args) if label_of else label
            if hot:
                span_id = None
            else:
                span_id = self._next_id
                self._next_id += 1
            parent = stack[-1][1] if stack else None
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][0] += t1 - t0
                st = stats.setdefault(name, [0, 0.0])
                st[0] += 1
                st[1] += t1 - t0 - frame[0]
                if not hot:
                    spans.append((name, self._request, span_id, parent, t0, t1))

        for attr in ("cache_clear", "cache_info"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    @contextmanager
    def request(self, request_id):
        """Top-level span of one unit of work; the spans inside share its id."""
        self._request = request_id
        span_id = self._next_id
        self._next_id += 1
        frame = [0.0, span_id]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans.append(("request", request_id, span_id, None, t0, t1))
            self._request = None

    def calls(self, label: str) -> int:
        return self.stats.get(label, [0, 0.0])[0]

    def self_s(self, label: str) -> float:
        return self.stats.get(label, [0, 0.0])[1]

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
