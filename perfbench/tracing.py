"""Span tracing of wildsemi's layers, installed from outside the package.

The tracer replaces functions with timing wrappers in the namespaces
where their callers look them up: `wildprove.verify_certificate` and
`cli.verify_certificate` are separate lookups of one function, and each
is wrapped.  Methods whose callers go through an instance are wrapped on
their class.  Nothing under src/ is edited; `uninstall` puts every
original back.

Each wrapped call is a span.  A span's self time is its duration minus
the durations of the spans that ran inside it, so the self times of all
spans in a pass add up to the traced time of that pass.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

# function name -> (metric key, layer).  A name is wrapped in every
# wildsemi module that binds it, so the key collects all of its lookups.
FUNCTIONS = {
    # certify
    "verify_certificate": ("certify.verify", "certify"),
    "multiply_certificates": ("certify.multiply", "certify"),
    "certificate_power": ("certify.power", "certify"),
    "invert_certificate": ("certify.invert", "certify"),
    "parse_certificate": ("certify.parse", "certify"),
    "serialize_certificate": ("certify.serialize", "certify"),
    "base_certificate": ("certify.base", "certify"),
    "identity_certificate": ("certify.identity", "certify"),
    # wildprove: number theory
    "factorize": ("wildprove.factorize", "wildprove.numtheory"),
    "is_prime_int": ("wildprove.is_prime", "wildprove.numtheory"),
    "largest_prime_factor": ("wildprove.largest_prime_factor", "wildprove.numtheory"),
    "is_q_smooth": ("wildprove.is_q_smooth", "wildprove.numtheory"),
    # wildprove: smooth pairs
    "find_smooth_pair": ("wildprove.smooth_pair", "wildprove.smooth"),
    "compute_a_r": ("wildprove.compute_a_r", "wildprove.smooth"),
    # wildprove: sieves and the two counting routes
    "smooth_residues": ("wildprove.sieve", "wildprove.sieve"),
    "smooth_majority_check": ("wildprove.sieve", "wildprove.sieve"),
    "smooth_counts_up_to": ("wildprove.sieve", "wildprove.sieve"),
    "smooth_majority_range": ("wildprove.sieve", "wildprove.sieve"),
    "pi_inequality_check": ("wildprove.sieve", "wildprove.sieve"),
    "pi_inequality_range": ("wildprove.sieve", "wildprove.sieve"),
    # wildprove: certificate assembly and the induction driver
    "w_certificate_for_prime": ("wildprove.w_certificate_for_prime", "wildprove.assemble"),
    "w_certificate_for_integer": ("wildprove.w_certificate_for_integer", "wildprove.assemble"),
    "s_certificate_for_integer": ("wildprove.s_certificate_for_integer", "wildprove.assemble"),
    "s_certificate_for_rational": ("wildprove.s_certificate_for_rational", "wildprove.assemble"),
    "induction_driver": ("wildprove.induction_driver", "wildprove.assemble"),
    # wildprove: the -1 lift and the one-step reduction
    "onestep_reduce": ("wildprove.onestep", "wildprove.onestep"),
    "lift_minus_one": ("wildprove.lift_minus_one", "wildprove.onestep"),
    "reduction_exponent": ("wildprove.reduction_exponent", "wildprove.onestep"),
    # wildprove: reach-one sweep
    "reach_one_range": ("wildprove.reach_one", "wildprove.reach"),
    # residue
    "find_decreasing_steps": ("residue.search", "residue"),
    "symbolic_apply": ("residue.symbolic_apply", "residue"),
    "verify_coverage_table": ("residue.verify_table", "residue"),
    "search_decreasing_path": ("residue.search_path", "residue"),
    "build_coverage": ("residue.build_coverage", "residue"),
    "load_coverage": ("residue.load_coverage", "residue"),
    "load_builtin_coverage": ("residue.load_builtin_coverage", "residue"),
    "dump_coverage": ("residue.dump_coverage", "residue"),
    "replay_steps": ("residue.replay_steps", "residue"),
    # core
    "trajectory_to_one": ("core.trajectory", "core"),
    "t_iterate": ("core.t_iterate", "core"),
    "parse_rational": ("core.parse_rational", "core"),
    # cli: the harness calls cli.main, so the root span of every
    # invocation is the cli layer and its self time is parsing,
    # formatting and writing the output file
    "main": ("cli", "cli"),
}

# (module, class, method) -> (metric key, layer); wrapped on the class
METHODS = {
    ("wildprove", "CertStore", "put"): ("wildprove.store.put", "wildprove.store"),
    ("wildprove", "CertStore", "get"): ("wildprove.store.get", "wildprove.store"),
    ("wildprove", "PrimeSieve", "build"): ("wildprove.sieve", "wildprove.sieve"),
    ("residue", "CoverageTable", "record_for"): ("residue.record_for", "residue"),
}

MODULES = ("cli", "core", "certify", "residue", "wildprove")

LAYERS = (
    "cli",
    "core",
    "certify",
    "residue",
    "wildprove.numtheory",
    "wildprove.smooth",
    "wildprove.sieve",
    "wildprove.store",
    "wildprove.reach",
    "wildprove.onestep",
    "wildprove.assemble",
)

# keys whose results are certificates handed back by the construction
# layer; their count is the base of certify.verify_per_cert
CONSTRUCTIONS = frozenset(
    {
        "wildprove.w_certificate_for_prime",
        "wildprove.w_certificate_for_integer",
        "wildprove.s_certificate_for_integer",
        "wildprove.s_certificate_for_rational",
        "wildprove.onestep",
    }
)


class Tracer:
    """Per-key call counts, self and inclusive time, and outcome counters."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.layer_of: dict[str, str] = {}
        self._stack: list[float] = []  # child time of each open span
        self._patches: list[tuple[object, str, object]] = []
        self.factorized: set[int] = set()
        self.factorize_repeats = 0
        self.store_hits = 0
        self.search_found = 0
        self.certificates_returned = 0
        self.max_generators = 0
        self.bytes_written = 0
        self._observe = self._observers()

    # -- installation ------------------------------------------------------

    def install(self, modules: dict[str, object]) -> None:
        for mod_name in MODULES:
            module = modules[mod_name]
            for name, (key, layer) in FUNCTIONS.items():
                fn = module.__dict__.get(name)
                if callable(fn) and not isinstance(fn, type):
                    self._patch(module, name, fn, self._wrap(fn, key, layer))
        for (mod_name, cls_name, method), (key, layer) in METHODS.items():
            cls = getattr(modules[mod_name], cls_name, None)
            raw = cls.__dict__.get(method) if cls is not None else None
            if isinstance(raw, classmethod):
                self._patch(cls, method, raw, classmethod(self._wrap(raw.__func__, key, layer)))
            elif callable(raw):
                self._patch(cls, method, raw, self._wrap(raw, key, layer))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner: object, name: str, original: object, replacement: object) -> None:
        self._patches.append((owner, name, original))
        setattr(owner, name, replacement)

    def _wrap(self, fn, key: str, layer: str):
        self.layer_of[key] = layer
        self.calls.setdefault(key, 0)
        self.self_s.setdefault(key, 0.0)
        self.total_s.setdefault(key, 0.0)
        stack = self._stack
        clock = time.perf_counter
        observe = self._observe.get(key)

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.calls[key] += 1
                self.self_s[key] += elapsed - inner
                self.total_s[key] += elapsed
            factors = getattr(result, "factors", None)
            if factors is not None and len(factors) > self.max_generators:
                self.max_generators = len(factors)
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- outcome counters ----------------------------------------------------

    def _observers(self):
        def factorize(args, result):
            n = args[0]
            if n in self.factorized:
                self.factorize_repeats += 1
            else:
                self.factorized.add(n)

        def store_get(args, result):
            if result is not None:
                self.store_hits += 1

        def store_put(args, result):
            # the certificate file put returns plus the index it rewrites;
            # a store that stops writing either simply counts fewer bytes
            for path in (result, Path(args[0].root) / "store.idx"):
                if path is not None and os.path.isfile(path):
                    self.bytes_written += os.path.getsize(path)

        def search(args, result):
            if result is not None:
                self.search_found += 1

        def construction(args, result):
            self.certificates_returned += 1

        observers = {
            "wildprove.factorize": factorize,
            "wildprove.store.get": store_get,
            "wildprove.store.put": store_put,
            "residue.search": search,
        }
        observers.update(dict.fromkeys(CONSTRUCTIONS, construction))
        return observers

    # -- results -------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Every exact count of the pass; equal inputs must give equal counts."""
        out = {f"{key}.calls": n for key, n in sorted(self.calls.items())}
        out.update(
            {
                "wildprove.factorize.repeats": self.factorize_repeats,
                "wildprove.store.get.hits": self.store_hits,
                "wildprove.store.bytes_written": self.bytes_written,
                "residue.search.found": self.search_found,
                "certify.certificates_returned": self.certificates_returned,
                "certify.max_generators": self.max_generators,
            }
        )
        return out

    def layer_self_s(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for key, seconds in self.self_s.items():
            totals[self.layer_of[key]] += seconds
        return totals

    def metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics of one traced pass, as (value, unit)."""
        calls, self_s = self.calls, self.self_s

        def n(key):
            return calls.get(key, 0)

        def s(*keys):
            return sum(self_s.get(k, 0.0) for k in keys)

        def share(part, whole):
            return part / whole if whole else 0.0

        m: dict[str, tuple[float, str]] = {}
        for op in ("verify", "multiply", "power", "invert", "parse"):
            m[f"certify.{op}.calls"] = (n(f"certify.{op}"), "count")
            m[f"certify.{op}.self_s"] = (s(f"certify.{op}"), "s")
        m["certify.serialize.self_s"] = (s("certify.serialize"), "s")
        m["certify.verify_per_cert"] = (share(n("certify.verify"), self.certificates_returned), "ratio")
        m["certify.max_generators"] = (self.max_generators, "count")
        m["wildprove.factorize.calls"] = (n("wildprove.factorize"), "count")
        m["wildprove.factorize.self_s"] = (s("wildprove.factorize"), "s")
        m["wildprove.factorize.repeat_share"] = (
            share(self.factorize_repeats, n("wildprove.factorize")),
            "ratio",
        )
        m["wildprove.is_prime.calls"] = (n("wildprove.is_prime"), "count")
        m["wildprove.is_prime.self_s"] = (s("wildprove.is_prime"), "s")
        m["wildprove.smooth_pair.calls"] = (n("wildprove.smooth_pair"), "count")
        m["wildprove.smooth_pair.self_s"] = (s("wildprove.smooth_pair"), "s")
        for fn in ("w_certificate_for_prime", "w_certificate_for_integer"):
            m[f"wildprove.{fn}.calls"] = (n(f"wildprove.{fn}"), "count")
            m[f"wildprove.{fn}.self_s"] = (s(f"wildprove.{fn}"), "s")
        m["wildprove.reach_one.self_s"] = (s("wildprove.reach_one"), "s")
        m["wildprove.onestep.calls"] = (n("wildprove.onestep"), "count")
        m["wildprove.onestep.self_s"] = (
            s("wildprove.onestep", "wildprove.lift_minus_one", "wildprove.reduction_exponent"),
            "s",
        )
        m["wildprove.sieve.self_s"] = (s("wildprove.sieve"), "s")
        for op in ("put", "get"):
            m[f"wildprove.store.{op}.calls"] = (n(f"wildprove.store.{op}"), "count")
            m[f"wildprove.store.{op}.self_s"] = (s(f"wildprove.store.{op}"), "s")
        # put inclusive of the parse and verify work its index rewrite does
        m["wildprove.store.put.total_s"] = (self.total_s.get("wildprove.store.put", 0.0), "s")
        m["wildprove.store.get.hit_ratio"] = (share(self.store_hits, n("wildprove.store.get")), "ratio")
        m["wildprove.store.bytes_written"] = (self.bytes_written, "bytes")
        m["residue.search.calls"] = (n("residue.search"), "count")
        m["residue.search.self_s"] = (s("residue.search"), "s")
        m["residue.search.found_ratio"] = (share(self.search_found, n("residue.search")), "ratio")
        m["residue.symbolic_apply.calls"] = (n("residue.symbolic_apply"), "count")
        m["residue.symbolic_apply.self_s"] = (s("residue.symbolic_apply"), "s")
        m["residue.verify_table.self_s"] = (s("residue.verify_table"), "s")
        m["core.trajectory.calls"] = (n("core.trajectory"), "count")
        m["core.trajectory.self_s"] = (s("core.trajectory"), "s")
        m["cli.self_s"] = (s("cli"), "s")
        for layer, seconds in self.layer_self_s().items():
            m[f"layer.{layer}.self_s"] = (seconds, "s")
        return m
