"""In-memory span tracing of loopcool's layers, installed from outside the package.

`Tracer.install()` replaces the public functions listed in `TRACED` with
wrappers that record one span per call: (name, start, end, parent).  A name
that `loopcool.cli` bound with `from ... import` is patched there as well as
in its defining module, so a call made from the CLI nests under the CLI span
(`cli.sweep -> steadystate.cool_or_flag -> steadystate.lyapunov_solve ->
steadystate.stability_check -> numkit.eigenvalues`).  Spans stay in memory and
are written out once, by `write_spans`, after the run.

A few wrappers also keep a small probe of their call (a matrix dimension, a
verdict, the arguments needed to recompute a residual later).  Probes are
taken after the span's end time is recorded, so they are charged to the
caller's self time, and they never hold a reference to a large array.
"""

import functools
import time

import numpy as np

#: public functions wrapped as spans, by layer (module of the loopcool package)
TRACED = {
    "cli": ("set_param", "parse_axis"),
    "config": ("parse_spec", "spec_to_dict"),
    "model": ("build_drift", "build_noise", "to_linearized"),
    "steadystate": ("cool_or_flag", "cool", "lyapunov_solve", "stability_check",
                    "phonon_numbers", "lyapunov_residual"),
    "numkit": ("solve_linear", "eigenvalues", "kron"),
    "spectra": ("scan_point", "scattering_matrix", "transmittances", "t_max",
                "lambda_analytic"),
    "kernels": ("rk4_lyapunov_flow",),
}

#: click commands whose callbacks are wrapped as `cli.<command>` spans
CLI_COMMANDS = ("sweep", "spectrum")

def _dim(args, kwargs, result):
    return np.shape(args[0])[0]


def _kron_bytes(args, kwargs, result):
    return int(np.asarray(result).nbytes)


def _residual_args(args, kwargs, result):
    # (drift, v): both are small (2N+2 square); the residual is computed later
    return args[0], result


def _stable(args, kwargs, result):
    return bool(result.stable)


def _steps(args, kwargs, result):
    t_end, dt = args[3], args[4]
    return int(round(t_end / dt))


#: span name -> probe(args, kwargs, result) kept for successful calls
PROBES = {
    "numkit.solve_linear": _dim,
    "numkit.kron": _kron_bytes,
    "steadystate.lyapunov_solve": _residual_args,
    "steadystate.cool_or_flag": _stable,
    "kernels.rk4_lyapunov_flow": _steps,
}


class Tracer:
    """Records spans of wrapped calls; use as a context manager to patch."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.probes = {}     # name -> list of (span index, probe value)
        self.errors = {}     # name -> list of (exception type, abscissa or None)
        self._stack = []
        self._patches = []   # (object, attribute, original value)

    # -- recording -----------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx, t0, t1):
        self._stack.pop()
        span = self.spans[idx]
        span[1] = t0
        span[2] = t1

    def span(self, name):
        """Context manager recording a span around the benchmark's own code."""
        return _Span(self, name)

    def _wrap(self, name, fn):
        probe = PROBES.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(idx, t0, time.perf_counter())
                # keep no traceback: its frames would pin the call's arrays
                tracer.errors.setdefault(name, []).append(
                    (type(exc).__name__, getattr(exc, "abscissa", None)))
                raise
            tracer._close(idx, t0, time.perf_counter())
            if probe is not None:
                tracer.probes.setdefault(name, []).append((idx, probe(args, kwargs, result)))
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def _set(self, obj, attr, value):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self):
        from loopcool import cli, config, kernels, model, numkit, spectra, steadystate
        modules = {"cli": cli, "config": config, "model": model,
                   "steadystate": steadystate, "numkit": numkit,
                   "spectra": spectra, "kernels": kernels}
        for layer, attrs in TRACED.items():
            mod = modules[layer]
            for attr in attrs:
                orig = getattr(mod, attr)
                wrapped = self._wrap("%s.%s" % (layer, attr), orig)
                self._set(mod, attr, wrapped)
                if mod is not cli and getattr(cli, attr, None) is orig:
                    self._set(cli, attr, wrapped)
        for name in CLI_COMMANDS:
            command = getattr(cli, name)
            self._set(command, "callback", self._wrap("cli." + name, command.callback))

    def uninstall(self):
        while self._patches:
            obj, attr, orig = self._patches.pop()
            setattr(obj, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis ------------------------------------------------------------

    def table(self):
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children (children of one span never overlap: the code is serial).
        """
        n = len(self.spans)
        if n == 0:
            return {}
        names = [s[0] for s in self.spans]
        dur = np.array([s[2] - s[1] for s in self.spans])
        parent = np.array([s[3] for s in self.spans])
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        out = {}
        for i, name in enumerate(names):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur[i]
            row[2] += self_time[i]
        return {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]} for k, v in out.items()}



class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.idx = self.tracer._open(self.name)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx, self.t0, time.perf_counter())
        return False


def write_spans(tracers, path):
    """Write the spans of every tracer as CSV: pass, index, name, start, end, parent."""
    with open(path, "w") as fh:
        fh.write("pass,index,name,start_s,end_s,parent\n")
        for k, tracer in enumerate(tracers):
            for i, (name, t0, t1, parent) in enumerate(tracer.spans):
                fh.write("%d,%d,%s,%.9f,%.9f,%d\n" % (k, i, name, t0, t1, parent))
