"""Per-layer tracing of ybalg from outside the program.

The tracer rebinds each ybalg module's public functions (plus the few
private kernels a metric needs and the hot methods `Scalar.__init__`,
`Element.add_term` and `LinMap.apply_word`) to wrappers that record one
span per call: name, start, end and parent.  A wrapped function is rebound
in every module that imported it by name, so calls such as binfty's use of
`tensoralg.delta_beta_iter` or cli's use of `braid.check_yang_baxter` are
traced too.  Spans are kept in compact arrays until the run ends; self time
is a span's duration minus the time its child spans cover.

Cache hit ratios are measured from outside: a lookup is a miss when the
cache it consults grows during the call (or lacks the key before it).
Work the tracer itself does in a hook is excluded from the self time of the
span it runs in, so it is not counted as any layer's.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from collections import Counter

# Private functions that a layer metric needs spans for.
PRIVATE = {
    "binfty": ("_star_pair_word", "_qsh_words", "_eq5_side"),
    "cli": ("_build_object", "_suite_entries", "_parse_element",
            "_split_args", "_witness_obj"),
    "tensoralg": ("_first_factor_delta_beta",),
}

# Methods wrapped under a span name of their own.
METHODS = {
    "scalars": (("Scalar", "__init__", "scalars.normalize"),),
    "linear": (("Element", "add_term", "linear.add_term"),
               ("LinMap", "apply_word", "linear.apply_word"),
               ("LinMap", "apply", "linear.LinMap.apply"),
               ("LinMap", "compose", "linear.LinMap.compose")),
    "braid": (("Braiding", "__init__", "braid.Braiding"),
              ("Braiding", "sigma_i", "braid.Braiding.sigma_i")),
    "catalog": (("WedgeAlgebra", "__init__", "catalog.WedgeAlgebra"),),
}

# Layer self-time metrics: metric -> span names (a trailing "." is a prefix).
SELF_TIME = {
    "scalars.normalize_self_s": ("scalars.normalize",),
    "linear.invert_self_s": ("linear.map_invert_exact",),
    "linear.self_s": ("linear.",),
    "braid.lift_self_s": ("braid.braid_lift_apply", "braid.braid_lift_word",
                          "braid.braid_lift", "braid.Braiding.sigma_i"),
    "braid.ybe_check_self_s": ("braid.check_yang_baxter",),
    "tensoralg.qshuffle_self_s": ("tensoralg.qshuffle_product",),
    "tensoralg.coproduct_self_s": ("tensoralg.quantum_coproduct",
                                   "tensoralg.deconcatenate"),
    "tensoralg.row_check_self_s": ("tensoralg.check_tensor_yb_product",
                                   "tensoralg.check_tensor_yb_coproduct",
                                   "tensoralg.apply_slot_transposition"),
    "tensoralg.delta_beta_iter_self_s": ("tensoralg.delta_beta_iter",
                                         "tensoralg._first_factor_delta_beta",
                                         "tensoralg.delta_beta"),
    "binfty.qb_validate_self_s": ("binfty.qb_validate", "binfty._eq5_side"),
    "binfty.star_self_s": ("binfty.star_product", "binfty._star_pair_word"),
    "binfty.antipode_self_s": ("binfty.antipode",
                               "binfty.reduced_deconcat_iter"),
    "binfty.quasi_shuffle_self_s": ("binfty.quasi_shuffle",
                                    "binfty._qsh_words"),
    "hopf.validate_self_s": ("hopf.hopf_validate", "hopf.yd_validate"),
    "catalog.build_self_s": ("braid.Braiding",
                             "catalog.resolve_catalog",
                             "catalog.diagonal_braiding",
                             "catalog.exterior_braiding",
                             "catalog.WedgeAlgebra",
                             "catalog.group_algebra_hopf",
                             "catalog.cartan_qmatrix"),
    "cli.load_session_self_s": ("cli.load_session", "cli._build_object"),
    "cli.verify_self_s": ("cli.cmd_verify", "cli._suite_entries"),
    "cli.compute_self_s": ("cli.cmd_compute", "cli.compute_expression",
                           "cli._parse_element", "cli._split_args"),
    "cli.format_self_s": ("cli.format_element", "cli.json.dumps",
                          "cli._witness_obj"),
}

# Call-count metrics: metric -> span names.
CALLS = {
    "scalars.normalize_calls": ("scalars.normalize",),
    "linear.add_term_calls": ("linear.add_term",),
    "linear.apply_word_calls": ("linear.apply_word",),
    "braid.lift_calls": ("braid.braid_lift_apply",),
    "tensoralg.qshuffle_calls": ("tensoralg.qshuffle_product",),
    "tensoralg.delta_beta_iter_calls": ("tensoralg.delta_beta_iter",),
    "binfty.star_calls": ("binfty.star_product",),
    "hopf.validate_calls": ("hopf.hopf_validate", "hopf.yd_validate"),
}

# name -> (unit, better) for every per-layer metric the traced run prints.
UNITS = dict(
    [(m, ("s/op", "lower")) for m in SELF_TIME]
    + [(m, ("count/op", "lower")) for m in CALLS]
    + [("scalars.nocancel_ratio", ("ratio", "higher")),
       ("scalars.rational_ratio", ("ratio", "lower")),
       ("braid.lift_hit_ratio", ("ratio", "higher")),
       ("braid.lift_cache_entries", ("count/op", "lower")),
       ("tensoralg.delta_beta_iter_terms", ("count/op", "lower")),
       ("binfty.dead_term_ratio", ("ratio", "lower")),
       ("binfty.star_cache_hit_ratio", ("ratio", "higher")),
       ("binfty.qsh_memo_entries", ("count/op", "lower")),
       ("cli.output_bytes", ("bytes/op", "lower")),
       ("trace.overhead_ratio", ("ratio", "lower"))])


class _JsonProxy:
    """Stands in for cli's `json` module so that `json.dumps` is traced."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_excl = array("d")
        self.stack = [-1]
        self.events = Counter()
        self.undo = []
        self.op_objects = {}
        self.ops = 0

    # -- spans ------------------------------------------------------------------

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def open(self, name):
        idx = len(self.s_name)
        self.s_name.append(self._name_id(name))
        self.s_parent.append(self.stack[-1])
        self.s_excl.append(0.0)
        self.s_end.append(0.0)
        self.s_start.append(time.perf_counter())
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.s_end[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn, pre=None, post=None):
        """A span per call.  `pre(args)` runs before the call and may return
        state for `post(args, result, state)`; their time is excluded from
        the caller's self time."""
        nid = self._name_id(name)
        s_name, s_parent, s_start = self.s_name, self.s_parent, self.s_start
        s_end, s_excl, stack = self.s_end, self.s_excl, self.stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            state = None
            if pre is not None:
                h0 = perf()
                state = pre(args)
                if parent >= 0:
                    s_excl[parent] += perf() - h0
            idx = len(s_name)
            s_name.append(nid)
            s_parent.append(parent)
            s_excl.append(0.0)
            s_end.append(0.0)
            stack.append(idx)
            s_start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                s_end[idx] = perf()
                stack.pop()
            if post is not None:
                h0 = perf()
                post(args, result, state)
                if parent >= 0:
                    s_excl[parent] += perf() - h0
            return result

        traced.__wrapped__ = fn
        return traced

    def _charge_hook(self, seconds):
        top = self.stack[-1]
        if top >= 0:
            self.s_excl[top] += seconds

    # -- install ------------------------------------------------------------------

    def install(self, package="ybalg"):
        mods = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                if name.startswith(package + ".") and mod is not None}
        wrappers = {}
        for short, mod in sorted(mods.items()):
            for attr, obj in sorted(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in PRIVATE.get(short, ()):
                    continue
                name = "%s.%s" % (short, attr)
                pre, post = self._hooks(name)
                wrappers[obj] = self.wrap(name, obj, pre, post)
            for cls_name, meth, name in METHODS.get(short, ()):
                cls = getattr(mod, cls_name, None)
                if cls is None or meth not in vars(cls):
                    continue
                orig = vars(cls)[meth]
                pre, post = self._hooks(name)
                self._set(cls, meth, self.wrap(name, orig, pre, post), orig)
        # rebind each wrapped function wherever a module holds it by name
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj], obj)
        if "binfty" in mods and hasattr(mods["binfty"], "_apply_m_blocks"):
            mod = mods["binfty"]
            orig = mod._apply_m_blocks
            self._set(mod, "_apply_m_blocks",
                      self._count_dead_terms(orig), orig)
        cli = mods.get("cli")
        if cli is not None and getattr(cli, "json", None) is json:
            self._set(cli, "json", _JsonProxy(
                self.wrap("cli.json.dumps", json.dumps)), json)

    def _set(self, owner, attr, new, old):
        setattr(owner, attr, new)
        self.undo.append((owner, attr, old))

    def uninstall(self):
        while self.undo:
            owner, attr, old = self.undo.pop()
            setattr(owner, attr, old)

    # -- hooks --------------------------------------------------------------------

    def _seen(self, kind, obj):
        self.op_objects.setdefault(kind, {})[id(obj)] = obj

    def _hooks(self, name):
        ev = self.events
        if name == "scalars.normalize":
            def post(args, result, state):
                self_, num, den = args[:3]
                if len(args) > 3 and args[3]:
                    ev["normalize_prenormalized"] += 1
                    return
                out_den = self_.den
                if out_den.coeffs != {0: 1}:
                    ev["normalize_rational"] += 1
                span = den.max_exp() - den.min_exp()
                if (out_den.max_exp() == span and
                        abs(out_den.leading_coeff())
                        == abs(den.leading_coeff())):
                    ev["normalize_nocancel"] += 1
            return None, post
        if name == "braid.braid_lift_apply":
            def pre(args):
                self._seen("lift", args[0])
                return len(args[0]._lift_cache)

            def post(args, result, before):
                if len(args[0]._lift_cache) > before:
                    ev["lift_miss"] += 1
            return pre, post
        if name == "binfty._star_pair_word":
            def pre(args):
                M = args[0]
                if (tuple(args[1]), args[2], args[3]) not in M._star_cache:
                    ev["star_miss"] += 1
            return pre, None
        if name == "binfty._qsh_words":
            def pre(args):
                self._seen("qsh", args[0])
            return pre, None
        if name == "tensoralg.delta_beta_iter":
            def post(args, result, state):
                ev["dbi_terms"] += len(result.terms)
            return None, post
        return None, None

    def _count_dead_terms(self, fn):
        """Wraps binfty._apply_m_blocks without a span of its own: counts the
        reduced-coproduct terms that meet an identically zero M_pq."""
        ev = self.events
        perf = time.perf_counter

        def counted(M, x):
            h0 = perf()
            for letters, cuts in x.terms:
                b = (0,) + tuple(cuts) + (len(letters),)
                ev["m_terms"] += 1
                for t in range(len(b) // 2):
                    p = b[2 * t + 1] - b[2 * t]
                    q = b[2 * t + 2] - b[2 * t + 1]
                    if M.component(p, q) is None:
                        ev["m_dead"] += 1
                        break
            self._charge_hook(perf() - h0)
            return fn(M, x)

        counted.__wrapped__ = fn
        return counted

    # -- per op ---------------------------------------------------------------------

    def begin_op(self):
        self.op_objects = {}
        return self.open("op")

    def end_op(self, idx, output_bytes):
        self.close(idx)
        ev = self.events
        objs = self.op_objects
        ev["lift_entries"] += sum(len(b._lift_cache)
                                  for b in objs.get("lift", {}).values())
        ev["qsh_entries"] += sum(len(b._memo)
                                 for b in objs.get("qsh", {}).values())
        ev["output_bytes"] += output_bytes
        self.op_objects = {}
        self.ops += 1

    # -- results ------------------------------------------------------------------

    def fold(self):
        """Per-name calls and self seconds over every recorded span."""
        n = len(self.s_name)
        child = [0.0] * n
        names, parents = self.s_name, self.s_parent
        starts, ends, excl = self.s_start, self.s_end, self.s_excl
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            nid = names[i]
            calls[nid] += 1
            self_s[nid] += ends[i] - starts[i] - child[i] - excl[i]
        return {self.names[k]: {"calls": calls[k], "self_s": self_s[k]}
                for k in range(len(self.names))}

    def metrics(self, per_name, overhead_ratio):
        ops = max(self.ops, 1)
        ev = self.events

        def sum_of(names, field):
            total = 0
            for key, agg in per_name.items():
                if any(key.startswith(n) if n.endswith(".") else key == n
                       for n in names):
                    total += agg[field]
            return total

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for m, names in SELF_TIME.items():
            out[m] = sum_of(names, "self_s") / ops
        for m, names in CALLS.items():
            out[m] = sum_of(names, "calls") / ops
        normal = (sum_of(("scalars.normalize",), "calls")
                  - ev["normalize_prenormalized"])
        out["scalars.nocancel_ratio"] = ratio(ev["normalize_nocancel"], normal)
        out["scalars.rational_ratio"] = ratio(ev["normalize_rational"], normal)
        lifts = sum_of(("braid.braid_lift_apply",), "calls")
        out["braid.lift_hit_ratio"] = 1 - ratio(ev["lift_miss"], lifts) \
            if lifts else 0.0
        out["braid.lift_cache_entries"] = ev["lift_entries"] / ops
        out["tensoralg.delta_beta_iter_terms"] = ev["dbi_terms"] / ops
        out["binfty.dead_term_ratio"] = ratio(ev["m_dead"], ev["m_terms"])
        lookups = sum_of(("binfty._star_pair_word",), "calls")
        out["binfty.star_cache_hit_ratio"] = 1 - ratio(ev["star_miss"],
                                                       lookups) \
            if lookups else 0.0
        out["binfty.qsh_memo_entries"] = ev["qsh_entries"] / ops
        out["cli.output_bytes"] = ev["output_bytes"] / ops
        out["trace.overhead_ratio"] = overhead_ratio
        return {m: {"value": v, "unit": UNITS[m][0]}
                for m, v in sorted(out.items())}
