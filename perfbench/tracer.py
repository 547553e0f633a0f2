"""Span tracing of sddde's layers from outside the package.

The tracer wraps the public functions of each layer where their callers
bind them: every module of the ``sddde`` package that holds a reference to
the function gets the wrapper, so ``normalform.multilinear_form``,
``continuation.linearize`` and ``cli.linearize`` are all traced, and
methods are replaced on their class. Nothing under ``src/`` changes.

Each call of a wrapped function records a span (name, start, end, parent,
failed) in flat in-memory arrays; :meth:`Tracer.write` saves them when the
run ends. Self time is the span's duration minus the time covered by its
child spans. ``ExpPoly.eval`` runs hundreds of thousands of times per pass,
so it is counted but not spanned; its time stays with the calling span.
"""

import functools
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# (module, attribute path, span name) of each spanned function
SPANNED = (
    ("histfun", "ExpPoly.__init__", "histfun.ExpPoly.init"),
    ("histfun", "combine", "histfun.combine"),
    ("histfun", "sup_norm", "histfun.sup_norm"),
    ("model", "Model.eval_functional", "model.eval_functional"),
    ("model", "Model.eval_rhs", "model.eval_rhs"),
    ("derivs", "directional_derivative", "derivs.directional_derivative"),
    ("derivs", "multilinear_form", "derivs.multilinear_form"),
    ("spectral", "linearize", "spectral.linearize"),
    ("spectral", "characteristic_roots", "spectral.characteristic_roots"),
    ("spectral", "refine_root", "spectral.refine_root"),
    ("spectral", "resolvent_apply", "spectral.resolvent_apply"),
    ("spectral", "spectral_projection", "spectral.spectral_projection"),
    ("normalform", "hopf_l1", "normalform.hopf_l1"),
    ("normalform", "hopf_h2", "normalform.hopf_h2"),
    ("continuation", "newton", "continuation.newton"),
    ("continuation", "solve_equilibrium", "continuation.solve_equilibrium"),
    ("continuation", "continue_branch", "continuation.continue_branch"),
    ("continuation", "continue_hopf_curve", "continuation.continue_hopf_curve"),
    ("ivp", "simulate", "ivp.simulate"),
    ("cli", "run", "cli.run"),
)
COUNTED = (("histfun", "ExpPoly.eval", "histfun.ExpPoly.eval"),)

LAYERS = ("histfun", "model", "derivs", "spectral", "normalform", "continuation", "ivp", "cli")

# (span, enclosing span) -> counter: calls of the first made inside the second
NESTED = {
    "model.eval_functional": (
        ("derivs.directional_derivative", "derivs.evals_in_dd"),
        ("ivp.simulate", "ivp.evals_in_simulate"),
    ),
    "derivs.directional_derivative": (("normalform.hopf_l1", "normalform.dd_in_hopf_l1"),),
    "spectral.refine_root": (("spectral.characteristic_roots", "spectral.seeds_refined"),),
}


def _terms_made(args, result):
    return "histfun.ExpPoly.terms_out", len(args[0].terms)


def _projection_terms(args, result):
    return "spectral.spectral_projection.terms_out", len(result.terms)


def _roots_kept(args, result):
    return "spectral.roots_kept", len(result)


def _newton_iters(args, result):
    return "continuation.newton.iters", result[2]


def _ivp_steps(args, result):
    return "ivp.steps", len(result.t) - 1


# work counts read off a successful call's arguments or result
ON_RETURN = {
    "histfun.ExpPoly.init": _terms_made,
    "spectral.spectral_projection": _projection_terms,
    "spectral.characteristic_roots": _roots_kept,
    "continuation.newton": _newton_iters,
    "ivp.simulate": _ivp_steps,
}


class Tracer:
    """Patches sddde's layer functions; records spans while ``on`` is set."""

    def __init__(self):
        self.on = False
        self.names = []
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.failed = array("b")
        self.counts = Counter()
        self.self_s = defaultdict(float)
        self._stack = []          # [span index, time covered by children]
        self._active = Counter()  # open spans per name
        self._patched = []        # (owner, attribute, original)

    # -- installation ---------------------------------------------------

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == "sddde" or k.startswith("sddde.")]
        for modname, path, name in SPANNED:
            self._patch(modules, modname, path, functools.partial(self._spanned, name))
        for modname, path, name in COUNTED:
            self._patch(modules, modname, path, functools.partial(self._counted, name))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, modules, modname, path, make_wrapper):
        module = sys.modules[f"sddde.{modname}"]
        owner_name, _, fname = path.rpartition(".")
        holder = getattr(module, owner_name) if owner_name else module
        owners = [holder] if owner_name else modules
        original = getattr(holder, fname)
        wrapper = make_wrapper(original)
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._patched.append((owner, attr, original))
                    setattr(owner, attr, wrapper)

    def _counted(self, name, fn):
        counts = self.counts
        key = f"{name}.calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.on:
                counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanned(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        nested = NESTED.get(name, ())
        on_return = ON_RETURN.get(name)
        calls_key, failed_key = f"{name}.calls", f"{name}.failed"
        counts, active, stack, self_s = self.counts, self._active, self._stack, self.self_s

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1][0] if stack else -1)
            self.failed.append(0)
            self.end.append(0.0)
            counts[calls_key] += 1
            for outer, key in nested:
                if active[outer]:
                    counts[key] += 1
            active[name] += 1
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[idx] = 1
                counts[failed_key] += 1
                raise
            finally:
                t1 = perf_counter()
                self.end[idx] = t1
                stack.pop()
                active[name] -= 1
                duration = t1 - t0
                self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if on_return is not None:
                key, amount = on_return(args, result)
                counts[key] += amount
            return result

        return spanned

    # -- results ----------------------------------------------------------

    def take(self):
        """Counts and self times recorded since the last take, then reset."""
        counts, self_s = dict(self.counts), dict(self.self_s)
        self.counts.clear()
        self.self_s.clear()
        return counts, self_s

    def write(self, path):
        """Save every recorded span as compressed arrays."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            failed=np.frombuffer(self.failed, dtype=np.int8),
        )


def summarize(counts, self_s):
    """Flat per-layer metrics of one traced pass from its counts and self times."""
    out = {f"{name}.{what}": 0 for _, _, name in SPANNED for what in ("calls", "failed")}
    out.update(counts)
    out.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
    for modname, _, name in SPANNED:
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out[f"{modname}.self_s"] += out[f"{name}.self_s"]
    out["histfun.ExpPoly.created"] = out["histfun.ExpPoly.init.calls"]
    out["histfun.ExpPoly.init_s"] = out["histfun.ExpPoly.init.self_s"]

    def ratio(num, den):
        den = counts.get(den, 0)
        return counts.get(num, 0) / den if den else 0.0

    out["derivs.evals_per_dd"] = ratio("derivs.evals_in_dd", "derivs.directional_derivative.calls")
    out["normalform.hopf_l1.dd_per_call"] = ratio("normalform.dd_in_hopf_l1",
                                                  "normalform.hopf_l1.calls")
    out["spectral.roots_per_seed"] = ratio("spectral.roots_kept", "spectral.seeds_refined")
    out["ivp.evals_per_step"] = ratio("ivp.evals_in_simulate", "ivp.steps")
    return out
