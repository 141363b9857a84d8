"""Certainty-equivalence control of a scalar lag plant with online estimation.

Per step k the loop (i) inverts the *estimated* model to pick the input u_k
that would place the one-step-ahead prediction on the target, (ii) advances
the true plant to produce y_{k+1}, and (iii) feeds (phi_k, y_{k+1}) to the
estimator.  ``solve_control_rows`` decides every row's control on arrays: a
link with a closed-form inverse is inverted directly, u = (link_inv(y*) -
base) / theta_u, and unreachable targets and a vanishing control gain get
best-effort/hold fallbacks that leave a flag in the trace instead of
raising.  Only the rest (other links, closed forms that miss the residual
tolerance) runs per row: a monotone bisection after geometric bracket
expansion from the previous input.  The run loop steps with the closed
form alone and tests once per chunk which case each step took; only a
chunk that left it runs again with the full decision.  The plant noise of
a run does not depend on the loop state, so it is drawn one block per
chunk of steps.

One loop, ``closed_loop_chunks``, runs every mode: it steps all (algorithm,
seed) cells of a sweep together as rows of (S, d) arrays, with the
regressors and observations either made by the closed loop or prepared
outside it, a chunk at a time (identification draws each chunk's, replay
slices its rows); a run of one cell is a batch of one.
Rows never mix, so a cell's trace does not depend on the other cells in its
batch.  The loop yields its steps in chunks of ``_CHUNK``, each a ``Trace``
with one column per cell, so a consumer that writes and summarizes each
chunk as it comes holds loop memory bounded by chunk x cells, whatever the
run length; ``run_closed_loop_batch`` joins the chunks of a whole run.  A
step tests none of its results: the loop tests each chunk's results once,
after its last step, and walks the regressors and observations a failing
chunk recorded through the checked update, so the run stops with the error
of its first bad step.  Every run mode records its steps as a ``Trace``:
one array per column, the flags of a step as an int64 bitmask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import ParameterVector, as_values, check_rows, row_dots
from .errors import ConfigurationError, DomainError, NumericError
from .metrics import regret_sum, running_mean
from .sg import DIVERGENCE_NORM, sg_update, sg_update_unguarded, steps_pass

__all__ = [
    "normal_quantile",
    "NoiseSource",
    "Plant",
    "ControlConfig",
    "TRACE_COLUMNS",
    "Trace",
    "solve_control",
    "solve_control_rows",
    "closed_loop_chunks",
    "run_closed_loop_batch",
]


# Wichura's AS 241, PPND16 (Applied Statistics 37, 1988): the numerator and
# denominator coefficients of its three rational forms, highest power first,
# for |p - 0.5| <= 0.425, then r = sqrt(-log(min(p, 1 - p))) <= 5 and > 5
_AS241 = (
    ((2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
      4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
      1.3314166789178437745e+2, 3.3871328727963666080e+0),
     (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
      2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
      4.2313330701600911252e+1, 1.0)),
    ((7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
      1.27045825245236838258e+0, 3.64784832476320460504e+0, 5.76949722146069140550e+0,
      4.63033784615654529590e+0, 1.42343711074968357734e+0),
     (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
      1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e+0,
      2.05319162663775882187e+0, 1.0)),
    ((2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
      2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e+0,
      5.46378491116411436990e+0, 6.65790464350110377720e+0),
     (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
      7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
      5.99832206555887937690e-1, 1.0)),
)


def _horner(coefs, r):
    out = coefs[0] * r + coefs[1]
    for c in coefs[2:]:
        out = out * r + c
    return out


def normal_quantile(p):
    """The standard normal quantile (inverse CDF) at each p in (0, 1), as an array of ndim >= 1.

    Wichura's AS 241 in NumPy: within 6.5 ulp of the exact quantile over
    300,000 of the 53-bit lattice uniforms ``NoiseSource`` draws, both tails
    included.  Every value goes through the same ufunc calls whatever the
    array's size, so one value gives the same bits alone as inside a block.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    q = p - 0.5
    r = 0.180625 - q * q
    (num, den), tail, far = _AS241
    x = _horner(num, r) * q / _horner(den, r)
    outer = np.abs(q) > 0.425
    if outer.any():
        q = q[outer]
        r = np.sqrt(-np.log(np.where(q < 0.0, p[outer], 1.0 - p[outer])))
        x_tail = np.where(r <= 5.0, _horner(tail[0], r - 1.6) / _horner(tail[1], r - 1.6),
                          _horner(far[0], r - 5.0) / _horner(far[1], r - 5.0))
        x[outer] = np.where(q < 0.0, -x_tail, x_tail)
    return x


# the largest double below 1
_UNIFORM_TOP = 1.0 - 2.0**-53


def _lattice_uniforms(n):
    """The uniforms (n + 0.5) / 2^53 of raw 53-bit draws ``n``, all strictly inside (0, 1).

    From 2^52 on, n + 0.5 rounds to an even integer, so the top draw 2^53 - 1
    would give exactly 1.0, where the quantile is not finite; it alone is
    clamped, to ``_UNIFORM_TOP``.
    """
    return np.minimum((n + 0.5) * 2.0**-53, _UNIFORM_TOP)


class NoiseSource:
    """Reproducible scalar noise stream.

    Counter-based Philox bits mapped through the inverse CDF, so every draw
    consumes exactly one 53-bit uniform and replays are exact; distinct seeds
    give independent streams.  ``kind`` is "gaussian" or "student_t" (the
    latter needs df > 2 so the variance assumption stays meaningful; ``std``
    is a scale factor in both cases).  The Gaussian quantile is
    ``normal_quantile``; the Student-t one is SciPy's ``stdtrit``, imported
    only when a Student-t source draws.
    """

    GENERATOR_NAME = "philox-inverse-cdf"

    def __init__(self, std=1.0, seed=0, kind="gaussian", df=None):
        # the context names the parameter at fault, so a config loader can name its key
        if not (std >= 0 and math.isfinite(std)):
            raise ConfigurationError(f"noise std must be finite and >= 0, got {std}",
                                     context={"parameter": "std"})
        if kind not in ("gaussian", "student_t"):
            raise ConfigurationError(f"unknown noise kind '{kind}'", context={"parameter": "kind"})
        if kind == "student_t":
            if df is None or not df > 2:
                raise ConfigurationError("student_t noise needs df > 2",
                                         context={"parameter": "df"})
        self.std = float(std)
        self.seed = int(seed)
        self.kind = kind
        self.df = None if df is None else float(df)
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))
        self.draw_count = 0

    def with_seed(self, seed):
        return NoiseSource(std=self.std, seed=seed, kind=self.kind, df=self.df)

    def draw_uniform(self):
        # power-of-two range means the integer draw never rejects, keeping the count fixed
        u = float(_lattice_uniforms(self._gen.integers(0, 1 << 53)))
        self.draw_count += 1
        return u

    def draw(self):
        return float(self.quantile(np.array([self.draw_uniform()]))[0])

    def uniform_block(self, n):
        """The next ``n`` values of ``draw_uniform()`` as one array, bit for bit.

        Philox is counter-based, so one vector call yields the same words as
        n scalar calls.
        """
        u = _lattice_uniforms(self._gen.integers(0, 1 << 53, size=n))
        self.draw_count += n
        return u

    def draw_block(self, n):
        """The next ``n`` values of ``draw()`` as one array, bit for bit."""
        return self.quantile(self.uniform_block(n))

    def quantile(self, u):
        """``std`` times this source's inverse CDF at each uniform of the array ``u``.

        Elementwise, so the values of several sources' ``uniform_block`` may
        be mapped in one call; ``draw`` and ``draw_block`` map theirs here.
        """
        if self.kind == "gaussian":
            return self.std * normal_quantile(u)
        from scipy.special import stdtrit

        return self.std * stdtrit(self.df, u)


@dataclass
class Plant:
    """The true system: conditional-mean model at theta_star plus additive noise."""

    model: object
    theta_star: ParameterVector
    noise: NoiseSource

    def __post_init__(self):
        if not isinstance(self.theta_star, ParameterVector):
            self.theta_star = ParameterVector(as_values(self.theta_star))
        if self.theta_star.dim != self.model.dim:
            raise ConfigurationError(
                f"theta_star dim {self.theta_star.dim} != model dim {self.model.dim}"
            )


@dataclass
class ControlConfig:
    """Targets and root-solver knobs for the closed loop."""

    y_target: object = 0.5  # scalar or per-step array of y*_{k+1}
    u_max: float = 1e3
    b_eps: float = 1e-8
    root_tol: float = 1e-10
    root_max_iter: int = 200

    def __post_init__(self):
        if np.ndim(self.y_target) > 1:
            raise ConfigurationError(
                f"y_target must be a scalar or 1-D, got shape {np.shape(self.y_target)}")
        if not np.isfinite(np.asarray(self.y_target, dtype=float)).all():
            raise ConfigurationError(f"y_target must be finite, got {self.y_target!r}")
        if not (self.u_max > 0 and self.b_eps > 0 and self.root_tol > 0):
            raise ConfigurationError("u_max, b_eps and root_tol must all be > 0")
        if self.root_max_iter < 1:
            raise ConfigurationError("root_max_iter must be >= 1")


TRACE_COLUMNS = [
    "k",
    "y",
    "u",
    "y_star",
    "f_true",
    "f_est",
    "loss",
    "regret_avg",
    "theta_err",
    "mu_k",
    "r_k",
    "flags",
]

# the flags a step may carry: the int64 bitmask of a step's flags, as a
# trace stores it, has bit i set when FLAGS[i] is on
FLAGS = ("saturated", "singular_gain", "divergence")
FLAG_BIT = {name: 1 << bit for bit, name in enumerate(FLAGS)}
# each bitmask's names joined by ";", as export_csv renders them
FLAG_TEXT = np.array([";".join(name for name in FLAGS if mask & FLAG_BIT[name])
                      for mask in range(1 << len(FLAGS))], dtype=object)


@dataclass(eq=False)
class Trace:
    """The per-step record of a run, one field per column of ``TRACE_COLUMNS``.

    ``k`` is an int64 array of step indices and ``flags`` the int64 bitmask
    of each step's flags (bit i for ``FLAGS[i]``, 0 on a clean step, all 0
    when not given); every other column is a float64 array, or None where
    the mode leaves it empty.  A run's trace has (n,) columns; the chunks of
    a sweep's loop have (m, S) columns, column i for cell i, with ``k``
    still (m,), and ``cell(i)`` is cell i's own trace.  Every column has
    ``len(k)`` rows, and ``len(trace)`` is that count.  Two traces are
    equal when every column is bit-equal, so ``0.0`` and ``-0.0`` differ.
    """

    k: np.ndarray
    y: np.ndarray | None = None
    u: np.ndarray | None = None
    y_star: np.ndarray | None = None
    f_true: np.ndarray | None = None
    f_est: np.ndarray | None = None
    loss: np.ndarray | None = None
    regret_avg: np.ndarray | None = None
    theta_err: np.ndarray | None = None
    mu_k: np.ndarray | None = None
    r_k: np.ndarray | None = None
    flags: np.ndarray | None = None

    def __post_init__(self):
        self.k = np.asarray(self.k, dtype=np.int64)
        flags = np.zeros(len(self.k), np.int64) if self.flags is None else np.asarray(self.flags)
        if not (flags.dtype.kind in "biu" or flags.dtype.kind == "f" and bool(
                np.isfinite(flags).all() and (np.trunc(flags) == flags).all())):
            raise ConfigurationError(f"column 'flags' holds non-integral values ({flags.dtype})")
        self.flags = flags.astype(np.int64, copy=False)
        for name in TRACE_COLUMNS[1:-1]:
            if getattr(self, name) is not None:
                setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        for name in TRACE_COLUMNS[1:]:
            column = getattr(self, name)
            if column is not None and len(column) != len(self.k):
                raise ConfigurationError(
                    f"column {name!r} has {len(column)} rows, not {len(self.k)}")

    def __len__(self):
        return len(self.k)

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        for name in TRACE_COLUMNS:
            a, b = getattr(self, name), getattr(other, name)
            if (a is None) != (b is None) or (
                a is not None and not np.array_equal(a.view(np.int64), b.view(np.int64))
            ):
                return False
        return True

    def cell(self, i):
        """The (m,) Trace of cell i of a trace with a cell axis, with its own contiguous columns."""
        columns = {name: getattr(self, name) for name in TRACE_COLUMNS[1:]}
        return Trace(k=self.k.copy(), **{name: None if column is None else column[:, i].copy()
                                         for name, column in columns.items()})


# module-level: perfbench/tracer.py rebinds it by name
def solve_control(model, theta, phi, p, y_star, cfg: ControlConfig, u_prev=0.0):
    """``solve_control_rows`` on one regressor row; returns (u, flags).

    ``phi`` has its input slot at index ``p``; the slot's value is ignored
    and ``phi`` is not modified.  ``flags`` is () or the names of the row's
    flags, in ``FLAGS`` order.
    """
    theta_v = as_values(theta, "parameter vector")
    phi = np.array(as_values(phi, "regressor"))
    if phi.size != theta_v.size:
        raise ConfigurationError(f"regressor dim {phi.size} != parameter dim {theta_v.size}")
    phi[p] = 0.0
    u, flagged = solve_control_rows(model, theta_v[None, :], phi[None, :], p, y_star, cfg,
                                    np.array([float(u_prev)]))
    mask = flagged.get(0, 0)
    return float(u[0]), tuple(name for name in FLAGS if mask & FLAG_BIT[name])


def solve_control_rows(model, theta, phi, p, y_star, cfg: ControlConfig, u_prev):
    """Invert u -> f(phi_k(u), theta) toward y_star on S stacked rows; returns (u, flagged).

    ``theta`` and ``phi`` are (S, d) arrays, each row of ``phi`` a regressor
    with its input entry (index ``p``) at 0; ``u_prev`` is (S,).  ``flagged``
    maps each flagged row to the int bitmask of its flags.  A row takes the
    first of: (1) its previous input clipped to [-u_max, u_max], if that
    meets root_tol; (2) the previous input, flagged ``singular_gain``, if
    the gain df/du there is below b_eps; (3) the closed form u =
    (link_inv(y*) - base) / theta_u, if it lies in [-u_max, u_max] and
    meets root_tol; (4) the better endpoint, ``saturated`` unless it meets
    root_tol, if the closed form lies beyond u_max or the target outside
    the link's range; (5) bisection, row by row (``saturated`` if it finds
    no root within root_tol).  The case rule of (1)-(3) is
    ``_control_cases``, which the run loop also applies to a whole chunk.
    Floating-point warnings stay silent: every case is tested explicitly.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return solve_control_rows_unguarded(model, theta, phi, p, y_star, cfg, u_prev)


def solve_control_rows_unguarded(model, theta, phi, p, y_star, cfg, u_prev):
    """``solve_control_rows`` inside the caller's ``np.errstate``: a run loop enters it once."""
    link_inv = getattr(model, "link_inv", None)
    z_star = link_inv(y_star) if link_inv is not None else math.nan
    cu = theta[:, p]
    base = row_dots(phi, theta)
    # nan without an inverse (the row bisects), inf outside the link's range (it saturates)
    u = np.full(len(cu), math.inf) if z_star is None else (z_star - base) / cu
    u0, short, hold, closed = _control_cases(model, base, cu, u, u_prev, y_star, cfg)
    if all(closed.tolist()):
        return u, {}
    beyond = ~short & ~hold & (np.abs(u) > cfg.u_max)
    ends = np.array([-cfg.u_max, cfg.u_max])
    r_ends = np.abs(model.link(base[:, None] + cu[:, None] * ends) - y_star)
    end = np.where(r_ends[:, 0] <= r_ends[:, 1], 0, 1)  # a tie keeps -u_max
    u = np.where(short, u0, np.where(hold, u_prev, np.where(beyond, ends[end], u)))
    missed = beyond & ~(r_ends[np.arange(len(end)), end] <= cfg.root_tol)
    flagged = dict.fromkeys(np.flatnonzero(hold).tolist(), FLAG_BIT["singular_gain"])
    flagged.update(dict.fromkeys(np.flatnonzero(missed).tolist(), FLAG_BIT["saturated"]))
    for i in np.flatnonzero(~(closed | short | hold | beyond)).tolist():
        f_of_u = partial(_link_at, model.link, float(np.dot(phi[i], theta[i])), float(cu[i]))
        u[i], flagged[i] = _bisect_control(f_of_u, y_star, float(u0[i]), cfg)
    return u, {i: mask for i, mask in flagged.items() if mask}


def _control_cases(model, base, cu, u, u_prev, y_star, cfg):
    """The case rule of ``solve_control_rows``, elementwise over arrays of one shape.

    ``base`` is phi . theta with the input entry at 0, ``cu`` the input
    coefficient, ``u`` the closed form (link_inv(y*) - base) / cu and
    ``u_prev`` the previous input.  Returns (u0, short, hold, closed): the
    previous input clipped to [-u_max, u_max], and the masks of cases (1),
    (2) and (3).
    """
    u0 = np.minimum(np.maximum(u_prev, -cfg.u_max), cfg.u_max)
    r0 = model.link(base + cu * u0) - y_star
    gain = model.dlink(base + cu * u_prev) * cu
    short = np.abs(r0) <= cfg.root_tol
    hold = ~short & (np.abs(gain) < cfg.b_eps)
    closed = (
        (np.abs(r0) > cfg.root_tol)
        & (np.abs(gain) >= cfg.b_eps)
        & (np.abs(u) <= cfg.u_max)
        & (np.abs(model.link(base + cu * u) - y_star) <= cfg.root_tol)
    )
    return u0, short, hold, closed


def _closed_form_chunk(model, base, cu, u, u_start, y_star, cfg):
    """Where each step of a chunk run with the closed form took case (3): an (m, S) mask.

    ``base``, ``cu``, ``u`` and ``y_star`` are the (m, S) columns of the
    chunk's steps, and ``u_start`` the (S,) input before its first step;
    a step's previous input is the step before's ``u``.  Where every entry
    holds, every step's ``solve_control_rows`` gives that ``u``, unflagged.
    """
    u_prev = np.concatenate((u_start[None], u[:-1]))
    return _control_cases(model, base, cu, u, u_prev, y_star, cfg)[3]


def _link_at(link, base, cu, u):
    return link(base + cu * u)


def _bisect_control(f_of_u, y_star, u0, cfg):
    """Bracket a sign change of f_of_u(u) - y_star by geometric expansion from u0, then bisect.

    Returns (u, mask): mask is 0, or the ``saturated`` bit when no root meets root_tol.
    """
    step = 1.0
    lo = hi = u0
    r_lo = r_hi = f_of_u(u0) - y_star
    bracket = None
    while bracket is None:
        progressed = False
        new_lo = max(-cfg.u_max, u0 - step)
        if new_lo < lo:
            r_new = f_of_u(new_lo) - y_star
            if abs(r_new) <= cfg.root_tol:
                return new_lo, 0
            if (r_new < 0.0) != (r_lo < 0.0):
                bracket = (new_lo, lo, r_new, r_lo)
            lo, r_lo = new_lo, r_new
            progressed = True
        if bracket is None:
            new_hi = min(cfg.u_max, u0 + step)
            if new_hi > hi:
                r_new = f_of_u(new_hi) - y_star
                if abs(r_new) <= cfg.root_tol:
                    return new_hi, 0
                if (r_new < 0.0) != (r_hi < 0.0):
                    bracket = (hi, new_hi, r_hi, r_new)
                hi, r_hi = new_hi, r_new
                progressed = True
        if bracket is None and not progressed:
            # whole admissible range scanned without a sign change
            return (lo if abs(r_lo) <= abs(r_hi) else hi), FLAG_BIT["saturated"]
        step *= 2.0

    a, b, r_a, r_b = bracket
    mid, r_mid = a, r_a
    for _ in range(cfg.root_max_iter):
        mid = 0.5 * (a + b)
        r_mid = f_of_u(mid) - y_star
        if abs(r_mid) <= cfg.root_tol:
            return mid, 0
        if (r_mid < 0.0) == (r_a < 0.0):
            a, r_a = mid, r_mid
        else:
            b, r_b = mid, r_mid
        if (b - a) <= 1e-15 * max(1.0, abs(a), abs(b)):
            break
    # interval exhausted without meeting the residual tolerance
    return mid, FLAG_BIT["saturated"]


# float64 columns the batch records: those of every mode, then those that
# need the truth (plant given), then those the closed loop makes itself
# (prepared blocks supply y and f_true otherwise)
_BATCH_COLUMNS = ("f_est", "mu_k", "r_k")
_TRUTH_COLUMNS = ("theta_err",)
_CLOSED_LOOP_COLUMNS = ("y", "f_true", "u")

# steps per chunk of the run loop, and so the rows of each trace write and
# summary feed of a sweep.  A chunk of 20 rows in d = 5 holds 0.6 MB of
# columns and 0.4 MB of estimates; 1024 wrote no faster and held more, 256
# wrote slower
_CHUNK = 512


def run_closed_loop_batch(plant, estimator, pair, cfg, n_steps, cells):
    """Run every (algorithm, seed) cell of a sweep as one batch; returns its (n, S) Trace.

    The chunks of ``closed_loop_chunks`` with the same arguments, joined
    into one trace of all ``n_steps`` steps.  Where ``f_true`` is known,
    ``regret_avg`` is recorded too: each cell's running mean of
    ``metrics.regret_sum``.
    """
    chunks = list(closed_loop_chunks(plant, estimator, pair, cfg, n_steps, cells))
    columns = {name: [getattr(chunk, name) for chunk in chunks] for name in TRACE_COLUMNS}
    batch = Trace(**{name: None if parts[0] is None else np.concatenate(parts)
                     for name, parts in columns.items()})
    if plant is not None:
        batch.regret_avg = running_mean(regret_sum(batch, pair.loss))
    return batch


# takes an sg_init state, not (theta0, hyper): perfbench/tracer.py patches EstimatorState
def closed_loop_chunks(plant, estimator, pair, cfg, n_steps, cells):
    """Run every (algorithm, seed) cell of a sweep as one batch; yields a Trace per chunk.

    Each chunk's Trace holds the steps [start, min(start + ``_CHUNK``,
    n_steps)) of every cell, in (m, S) columns (``k`` is (m,), ``y_star``
    a broadcast view of the shared target, ``regret_avg`` empty, since a
    chunk cannot know the steps before it); the chunks come in step order.
    Row i of every array, and column i of every chunk, is the cell
    ``cells[i]``; all rows start from ``estimator``, and a row whose
    algorithm is "classical" takes the classical gain law, any other the
    modified one.  Each step k takes a regressor phi_k and an observation
    y_{k+1} per row, updates the estimator rows with them, and records the
    prediction made before the update.  ``cfg`` says where phi_k and
    y_{k+1} come from:

    - a ControlConfig closes the loop: solve the control of every row from
      its current estimate (zero lags at the start), then advance
      ``plant``, whose noise for a row is the stream
      ``plant.noise.with_seed(seed)``: once per chunk, every row's
      ``uniform_block`` is stacked and mapped by one ``quantile`` call (the
      same values as each stream's own ``draw_block(n_steps)``);
    - any other ``cfg`` is a ``draw(m)`` of prepared inputs, called once
      per chunk, in step order, so the inputs need never be held whole.
      It gives the blocks ``(phi, y, f_true)`` of the next m steps, shaped
      (m, U, d), (m, U) and (m, U), with one column per distinct seed of
      ``cells`` in order of first appearance: every cell reads the column
      of its seed.  ``f_true`` is None when the truth is unknown, and
      ``plant`` is then None too: ``f_true``, ``regret_avg`` and
      ``theta_err`` stay empty.

    A step runs only the recursion: control and plant (closed loop only)
    and ``sg_update_unguarded``, and tests none of their results.  The
    control is the closed form u = (z* - base) / theta_u, z* = link_inv(y*)
    taken once per chunk; a chunk where ``_closed_form_chunk`` finds a row
    that took another case of ``solve_control_rows``, or whose z* is not
    all finite, runs from its start deciding every row's control with
    ``solve_control_rows_unguarded``.  Once per chunk, the prepared inputs
    are gathered per cell; ``sg.steps_pass`` tests the chunk's results;
    the divergence flags (norm above ``DIVERGENCE_NORM`` after a step) and
    ``theta_err`` are derived from the chunk's estimates; and ``loss`` is
    evaluated on the chunk's (m, S) blocks.  A chunk that fails the test is
    walked by the estimator alone over its recorded regressors and
    observations, each step checked (the plant's output, then
    ``sg_update``), which raises at its first bad step as a loop checking
    every step would.  A NumericError or DomainError raised inside the
    batch names the step, and the algorithm and seed of the first bad row.
    """
    model_est = pair.predictor
    closed = isinstance(cfg, ControlConfig)
    n = int(n_steps)
    if plant is not None and model_est.dim != plant.model.dim:
        raise ConfigurationError(
            f"estimator model dim {model_est.dim} != plant model dim {plant.model.dim}"
        )
    if closed:
        p = getattr(plant.model, "p", None)
        if p is None:
            raise ConfigurationError("plant model must expose its output lag order p")
        if np.ndim(cfg.y_target) == 1 and len(cfg.y_target) < n:
            raise ConfigurationError(
                f"y_target has {len(cfg.y_target)} per-step targets, fewer than {n} steps")
    cells = tuple(cells)
    if not cells:
        raise ConfigurationError("a batch needs at least one (algorithm, seed) cell")
    hyper, loss = estimator.hyper, pair.loss
    classical = np.array([algo == "classical" for algo, _ in cells])
    S, d = len(cells), model_est.dim
    truth = plant is not None
    columns = (_BATCH_COLUMNS + (_TRUTH_COLUMNS if truth else ())
               + (_CLOSED_LOOP_COLUMNS if closed else ()))

    r = np.full(S, estimator.gain.r)
    carry = np.full(S, estimator.gain.carry)
    # row 0 holds the estimates a chunk starts from, row j + 1 those after its step j
    estimates = np.empty((min(n, _CHUNK) + 1, S, d))
    estimates[0] = estimator.theta.values
    if truth:
        # stacked like the estimates so that theta == theta* gives f_est == f_true exactly
        theta_star = np.tile(plant.theta_star.values, (S, 1))
    y_star = None
    if closed:
        y_target = np.array(cfg.y_target, dtype=float)
        link_inv = getattr(model_est, "link_inv", None)
        noises = [plant.noise.with_seed(s) for _, s in cells]
        link_true = plant.model.link
        # row j holds step j's regressors, row 0 a chunk's start: the lag stacks, outputs
        # y_k..y_{k-p+1}, the input slot (0 until solved), then inputs u_{k-1}..u_{k-q+1}
        phi_rows = np.zeros((min(n, _CHUNK) + 1, S, d))
        u_prev = np.zeros(S)
    else:
        seeds = list(dict.fromkeys(seed for _, seed in cells))
        block_of = np.array([seeds.index(seed) for _, seed in cells])
        U = len(seeds)
    k = 0
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        m = stop - start
        # one array per column keeps each allocation small
        recorded = {name: np.empty((m, S)) for name in columns}
        f_est_col, mu_col, r_col = (recorded[name] for name in _BATCH_COLUMNS)
        grad_norm_sq = np.empty((m, S))
        if closed:
            targets = np.full(m, y_target) if y_target.ndim == 0 else y_target[start:stop]
            y_star = np.broadcast_to(targets[:, None], (m, S))
            targets = targets.tolist()
            # inf outside the link's range and nan without an inverse: such a chunk decides
            z_star = ([math.nan] * m if link_inv is None
                      else [math.inf if z is None else z for z in map(link_inv, targets)])
            decide = not all(map(math.isfinite, z_star))
            y_col, f_true_col, u_col = (recorded[name] for name in _CLOSED_LOOP_COLUMNS)
            base_col = np.empty((m, S))
            u_start = u_prev
        else:
            blocks = cfg(m)
            shapes = tuple(np.shape(block) for block in blocks)
            if shapes != ((m, U, d), (m, U), (m, U) if truth else ()):
                raise ConfigurationError(
                    f"block shapes {shapes} do not match {m} steps of {U} seeds in dim {d}")
            phi_rows, y_col, f_true_rows = (None if block is None else block.take(block_of, axis=1)
                                            for block in blocks)
            recorded["y"] = y_col
            if truth:
                recorded["f_true"] = f_true_rows
        start_gain = (r, carry)
        try:
            # overflow and 0/0 stay silent: every result is checked;
            # entered per chunk, so the setting never reaches the consumer of a yield
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                if closed:
                    noise = plant.noise.quantile(
                        np.stack([source.uniform_block(m) for source in noises], axis=1))
                # a chunk steps again, deciding each control, only when a step left the closed form
                while True:
                    theta, (r, carry) = estimates[0], start_gain
                    flags = np.zeros((m, S), np.int64)
                    for j, k in enumerate(range(start, stop)):
                        phi = phi_rows[j]
                        if closed:
                            if decide:
                                u, flagged = solve_control_rows_unguarded(
                                    model_est, theta, phi, p, targets[j], cfg, u_prev)
                                for i, mask in flagged.items():
                                    flags[j, i] = mask
                            else:
                                base_col[j] = base = row_dots(phi, theta)
                                u = (z_star[j] - base) / theta[:, p]
                            phi[:, p] = u_col[j] = u_prev = u
                            f_true_col[j] = f_true = link_true(row_dots(phi, theta_star))
                            y_col[j] = f_true + noise[j]
                            # the next regressor: each lag one slot on, y_{k+1} first, no input
                            phi_rows[j + 1, :, 1:] = phi[:, :-1]
                            phi_rows[j + 1, :, 0] = y_col[j]
                            phi_rows[j + 1, :, p] = 0.0
                        theta, r, carry, mu_col[j], grad_norm_sq[j], f_est_col[j] = (
                            sg_update_unguarded(theta, r, carry, phi, y_col[j], pair, hyper,
                                                classical, estimates[j + 1]))
                        r_col[j] = r
                    if not closed or decide or _closed_form_chunk(
                            model_est, base_col, estimates[:m, :, p], u_col, u_start, y_star,
                            cfg).all():
                        break
                    decide = True
                    phi_rows[0, :, p], u_prev = 0.0, u_start
                # a failing chunk's recorded arrays are walked with every step checked, to raise
                # the error of its first bad step
                if not steps_pass(estimates[1 : m + 1], r_col, mu_col, grad_norm_sq, f_est_col,
                                  y_col, loss, hyper, classical):
                    theta, (r, carry) = estimates[0], start_gain
                    for j, k in enumerate(range(start, stop)):
                        if closed:
                            check_rows(np.isfinite(f_true_col[j]),
                                       "plant conditional mean non-finite",
                                       phi=phi_rows[j], u=u_col[j])
                        theta, r, carry, *_ = sg_update(theta, r, carry, phi_rows[j], y_col[j],
                                                        pair, hyper, classical)
                chunk = estimates[: m + 1]
                diverged = np.sqrt(row_dots(chunk[1:], chunk[1:])) > DIVERGENCE_NORM
                if truth:
                    gap = chunk[:-1] - theta_star
                    recorded["theta_err"][:] = np.sqrt(row_dots(gap, gap))
        except (NumericError, DomainError) as exc:
            row = exc.context.pop("row", None)
            exc.context["k"] = k
            if row is not None:
                exc.context["algorithm"], exc.context["seed"] = cells[row]
            raise
        flags[diverged] |= FLAG_BIT["divergence"]
        recorded["loss"] = loss.eval(y_col, f_est_col)
        estimates[0] = chunk[-1]
        if closed:
            phi_rows[0] = phi_rows[m]
        yield Trace(k=np.arange(start, stop), y_star=y_star, flags=flags, **recorded)
