"""Method-of-lines co-simulation of plant and sampled-data observers.

Time integration is IMEX Crank-Nicolson: diffusion-reaction implicit, the
nonlinear, non-local, input and injection terms explicit through the
trapezoidal rule. One stepper class integrates the plant and both
observers. Every explicit term reads the state through a few inner
products, so a step takes one tridiagonal solve with the factorization of
the current dt and r + m coupling equations, solved by chord-Newton with a
Jacobian inverted once per dt (exact for linear terms). Every sampling time
lands exactly on a step boundary, and all discrete inner products share the
trapezoid weights of the grid, so the matched run (same initial state, same
inputs, no noise) keeps the observer error at roundoff level.

The inter-sample predictor integrates the coupled (w, zeta) system; the
rate of zeta uses the discrete operator applied to the approximant, which
makes the discrete integration-by-parts identity exact. The zero-order-hold
variant freezes the innovation between samples instead.

With linear terms a step of fixed dt is one linear map of the state and
the exosystem of the inputs, built from the same algebra and coupling, so
a run jumps with one product with a kept k-step power of that map (or a
few with its binary powers); the observer then runs in error coordinates
(w - u, zeta - C u), whose dynamics are the observer's own driven by
v~ - v.

The two paths solve with M1 = I + dt/2 B_h in two ways. A step solves one
state in O(n) with LAPACK's tridiagonal LU (scipy's ``dgttrf``/``dgttrs``,
imported on the first step). The one-step map is dense, so building it
and its powers costs O(n^3) anyway; its solve takes a dense numpy inverse
of M1, and a propagated run loads no scipy.

A run plans its records before it steps: every record time and sample
flag, and each sampling interval's jumps from record to record. The
trajectory arrays are allocated once. The plant never reads the observer,
which reads the plant only through its samples, so the plant runs through
the whole plan first and the observer after it, one stepper's matrices
alive at a time (``_fill``). The error norms are taken a block of rows at a
time, so a run holds its trajectory and no full-size copy of it.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from . import profiles as pf
from .errors import ConfigError, InvalidSpec, StepRejected
from .grids import _row_blocks, snapshot_norms, trapezoid_weights
from .nonlinear import NonlinearTerm, ZeroTerm
from .observer_design import (ObserverDesign, SmallGainReport, check_variant, injection_kernels,
                              small_gain)
from .schedule import SamplingSchedule
from .signals import Disturbances, NoiseSignal, SpaceTimeSignal, TimeSignal, field_signal_from_spec
from .sturm_liouville import DiscreteSLOperator, SLProblem

__all__ = [
    "Scenario",
    "Trajectory",
    "SampleEvent",
    "simulate",
    "DiscreteObserver",
    "step_plant",
    "step_observer_predictor",
    "step_observer_zoh",
]

_CORRECTOR_RTOL = 1e-13
_CORRECTOR_MAXITER = 40
_SINGULAR_RTOL = 1e-12  # smallest singular value of the coupling Jacobian, relative
_PROPAGATOR_BYTES = 64 * 2**20  # cached powers of one system's one-step matrix


class IMEXStepper:
    """IMEX Crank-Nicolson steps of w_t = -B_h w + f(w) + v + sum_i l_i e_i.

    One class serves the plant and both observers; they differ only in the
    m output channels with injection columns ``l_cols`` (n, m):

    - plant: no channels (m = 0);
    - hold observer: ``zeta`` is the held innovation e, a known forcing that
      the step leaves unchanged;
    - predictor observer (``c_rows`` and ``stiff_rows`` given): e = C w - zeta,
      and zeta is integrated alongside w with rate S w + C (f(w) + v) by the
      same trapezoidal rule. Using <L_h c_i, w> with the discrete operator
      makes (w, zeta) track (u, <c_i, u>) exactly on matched runs.

    Every explicit term is low rank (f(w) = phi(R w) @ cols), so a step is
    w_new = a + P coef: ``a`` takes one solve with M1 and P = dt/2 M1^-1
    [cols, l] is kept for the current dt. The trapezoidal rule is then the
    fixed point coef = Phi(coef) of the r + m coefficients [phi(R w_new); e],
    affine in coef except for phi; its Jacobian with phi' = 1 is inverted
    alongside P, once per dt.

    ``advance`` takes one state or a block of states with their own start
    times through a list of jumps of k steps each, and k steps at once when
    phi is linear: the same algebra applied to the identity gives the
    one-step matrix T of (w, zeta) and the inputs' exosystem, and k steps
    are one product with T^k for the k its caller keeps, popcount(k)
    products with cached binary powers of T for any other k. The matrices
    stay until dt changes or ``_release`` drops them. ``steps``,
    ``propagators_built`` and ``propagator_products`` (one per matrix and
    state) count the work done.

    The stepper holds one factorization of M1 for its dt (``_factor``):
    ``step`` solves with LAPACK's tridiagonal LU, O(n) per state, and T is
    built with a dense numpy inverse of M1, since T is a dense matrix
    anyway and its powers cost O(n^3) each; that keeps scipy out of a
    propagated run. Asking for the other one at the same dt refactors, so
    a result never depends on which call came first; a singular M1 raises
    the same ``StepRejected`` in both. Steppers on one operator may share
    ``inverses``, which holds the dense inverse of the last dt any of
    them asked for.
    """

    def __init__(
        self,
        op: DiscreteSLOperator,
        nonlinearity: NonlinearTerm,
        v: SpaceTimeSignal,
        l_cols: np.ndarray | None = None,  # (n, m)
        c_rows: np.ndarray | None = None,  # (m, n): weights * c_i
        stiff_rows: np.ndarray | None = None,  # (m, n): weights * (L_h c_i)
        inverses: dict | None = None,  # dt -> dense M1^-1 on op's free nodes
    ):
        n = op.grid.size
        self.op, self.phi = op, nonlinearity.phi
        self.v_terms = tuple((ts, prof.values(op.grid)) for ts, prof in v.terms)
        nl_rows, nl_cols = nonlinearity.factors(n)
        l_cols = np.zeros((n, 0)) if l_cols is None else l_cols
        self.r, self.m = nl_rows.shape[0], l_cols.shape[1]
        self.coupled = c_rows is not None
        if not self.coupled:
            c_rows = stiff_rows = np.zeros((0, n))
        self.c_rows = c_rows
        self.c_nl = c_rows @ nl_cols.T  # <c_i, cols_k>
        self.cols = np.vstack([nl_cols, l_cols.T])  # explicit part = coef @ cols
        self.rows = np.vstack([nl_rows, c_rows, stiff_rows])  # s = rows @ w
        self.dt = self._powers_dt = None
        self._dense = False  # which factorization of M1 is held for dt (see _factor)
        self._inverses = {} if inverses is None else inverses
        self._powers: list[np.ndarray] = []  # T^(2^i) for dt = _powers_dt
        self._kept: dict[int, np.ndarray] = {}  # k -> T^k for dt = _powers_dt
        self.steps = self.propagators_built = self.propagator_products = 0

    def _factor(self, dt: float, dense: bool) -> None:
        """Factor M1 = I + dt/2 B_h for ``_solve``, as a dense numpy inverse
        (``dense``, for ``_propagator``) or as LAPACK's tridiagonal LU (for
        ``step``), and build what a step of dt reuses: M0, P, R P and the
        coupling Jacobian's inverse."""
        self.dt = None  # a factorization that raises leaves none held
        sub, diag, sup = self.op.free_tridiagonals()
        h = 0.5 * dt
        # M1 = I + dt/2 B_h (implicit), M0 = I - dt/2 B_h (explicit)
        singular = StepRejected(f"Crank-Nicolson matrix is singular at dt={dt:.6g}")
        if dense:
            if dt not in self._inverses:
                m1 = np.diag(1.0 + h * diag) + np.diag(h * sub, -1) + np.diag(h * sup, 1)
                try:
                    inverse = np.linalg.inv(m1)
                except np.linalg.LinAlgError:
                    raise singular from None
                self._inverses.clear()  # one dt at a time
                self._inverses[dt] = inverse
            self._m1_inv = self._inverses[dt]
        else:
            from scipy.linalg.lapack import dgttrf, dgttrs

            *self._lu, info = dgttrf(h * sub, 1.0 + h * diag, h * sup)
            self._gttrs = dgttrs  # bound here so the per-step _solve imports nothing
            if info:
                raise singular
        self._dense = dense
        self._m0 = (-h * sub, 1.0 - h * diag, -h * sup)
        self._p = self._solve(h * self.cols.T[self.op.free])  # (n, r + m)
        self._rp = self.rows @ self._p
        # Jacobian of coef - Phi(coef) with phi' = 1; the held innovation is constant
        r = self.r
        jac = np.eye(r + self.m)
        jac[:r] -= self._rp[:r]
        if self.coupled:
            jac[r:] -= self._rp[r : r + self.m] - h * self._rp[r + self.m :]
            jac[r:, :r] += h * self.c_nl
        # a 1x1 jac of -1e-15 has condition number 1: scale its smallest singular
        # value by the block subtracted from the identity instead
        smallest = np.linalg.svd(jac, compute_uv=False).min(initial=np.inf)
        if smallest <= _SINGULAR_RTOL * max(1.0, np.linalg.norm(np.eye(r + self.m) - jac, 2)):
            raise StepRejected(f"coupling Jacobian is singular at dt={dt:.6g}")
        self._jinv = np.linalg.inv(jac)
        self.dt = dt

    def _solve(self, rhs_free: np.ndarray) -> np.ndarray:
        """M1^-1 on the free nodes, zero at pinned ones, by the factorization
        held for ``self.dt``."""
        out = np.zeros((self.op.grid.size, *rhs_free.shape[1:]))
        if not rhs_free.size:  # dgttrs corrupts the heap when given no right-hand side
            return out
        if self._dense:
            np.matmul(self._m1_inv, rhs_free, out=out[self.op.free])
        else:
            out[self.op.free] = self._gttrs(*self._lu, rhs_free)[0]
        return out

    def _input(self, t: float) -> np.ndarray:
        """v(t) on the grid, summed in SpaceTimeSignal.field's order from the
        profiles sampled once at construction."""
        return sum((ts.value(t) * b for ts, b in self.v_terms), np.zeros(self.op.grid.size))

    def _coef(self, s: np.ndarray, zeta: np.ndarray) -> np.ndarray:
        e = s[self.r : self.r + self.m] - zeta if self.coupled else zeta
        return np.concatenate([self.phi(s[: self.r]), e])

    @property
    def linear(self) -> bool:
        """True when phi is the identity (zero and linear non-local terms)."""
        return self.phi is NonlinearTerm.phi

    def fits(self, k: int) -> bool:
        """True when the binary powers of the one-step matrix that take k
        steps at once fit in _PROPAGATOR_BYTES."""
        size = self.op.grid.size + self.m + 3 * len(self.v_terms)
        return 8 * size**2 * k.bit_length() <= _PROPAGATOR_BYTES

    def step(self, w: np.ndarray, t: float, dt: float, zeta: np.ndarray | None = None):
        """Advance (w, zeta) from t to t + dt and return the new pair.

        Chord-Newton on coef = Phi(coef), started from the coefficients at
        t: stop once the state change P dcoef (and the change of zeta) falls
        below _CORRECTOR_RTOL of the state, or reject the step after
        _CORRECTOR_MAXITER updates. Linear terms stop after the second update,
        which confirms the exact first one.
        """
        if dt != self.dt or self._dense:
            self._factor(dt, dense=False)
        zeta = np.zeros(self.m) if zeta is None else zeta
        self.steps += 1
        return self._trapezoid(w, zeta, self._input(t), self._input(t + dt), t, self._m0)

    def _trapezoid(self, w, zeta, v0, v1, t: float, m0):
        """One step of the current dt with the inputs v0 = v(t), v1 = v(t + dt)
        and m0, the three diagonals of M0.

        The arrays are single states, or blocks whose columns are states
        (w (n, K), zeta (m, K), v0 and v1 (n, K), the diagonals as columns):
        the block form is how ``_propagator`` applies this same algebra to the
        identity.
        """
        r, free, h = self.r, self.op.free, 0.5 * self.dt
        s = self.rows @ w
        coef = self._coef(s, zeta)

        if self.coupled:
            stiff = slice(r + self.m, None)
            zeta_known = zeta + h * (s[stiff] + self.c_nl @ coef[:r] + self.c_rows @ (v0 + v1))

        # h * (cols' coef + v0 + v1) and a + P coef by the same operations in
        # place, each temporary dropped once read: building T holds few (n, n)
        sub0, diag0, sup0 = m0
        wf = w[free]
        rhs = diag0 * wf
        rhs[:-1] += sup0 * wf[1:]
        rhs[1:] += sub0 * wf[:-1]
        explicit = self.cols.T @ coef
        explicit += v0
        explicit += v1
        explicit *= h
        rhs += explicit[free]
        del explicit
        a = self._solve(rhs)
        del rhs
        s_a = self.rows @ a

        zeta_new = zeta
        for _ in range(_CORRECTOR_MAXITER):
            s = s_a + self._rp @ coef
            if self.coupled:
                zeta_new = zeta_known + h * (s[stiff] + self.c_nl @ coef[:r])
            dcoef = self._jinv @ (self._coef(s, zeta_new) - coef)
            coef = coef + dcoef
            w_new = self._p @ coef
            w_new += a
            change = self._p @ dcoef
            diff = np.abs(change, out=change).max()
            del change
            if self.coupled:
                dzeta = h * (self._rp[stiff] @ dcoef + self.c_nl @ dcoef[:r])
                zeta_new = zeta_new + dzeta
                diff = max(diff, np.abs(dzeta).max())
            if diff <= _CORRECTOR_RTOL * max(np.abs(w_new).max(), 1.0):
                return w_new, zeta_new
            del w_new  # before the next iterate is built
        raise StepRejected(f"corrector failed to converge within {_CORRECTOR_MAXITER} updates "
                           f"at t={t:.6g} (dt={self.dt:.3g}); the explicit part is too stiff")

    def advance(self, w: np.ndarray, t, dt: float, jumps, zeta: np.ndarray | None = None,
                out_w: np.ndarray | None = None, out_zeta: np.ndarray | None = None,
                stepwise: bool = False, keep=(), rows=None):
        """Advance (w, zeta) from t by steps of size dt, ``jumps[i]`` steps at
        a time, and write the state after jump i into row ``rows[i]`` of
        ``out_w`` and ``out_zeta`` (row i by default); ``out_w`` is
        allocated with one row per jump when not given, ``out_zeta`` with
        out_w's rows, and both are returned. Equal to calls of ``step`` up
        to roundoff, and bit for bit to one call per jump.

        ``w`` is one state (n,) with ``zeta`` (m,) and a start time t, or a
        block of K states (K, n) with ``zeta`` (K, m) and K start times, all
        taking the same jumps; each ``rows[i]`` then holds K row indices.

        With a linear phi a step is one linear map T of the augmented state
        x = (w, zeta, z), where z holds three exosystem coordinates per input
        term: (offset, amplitude sin(omega t + phase), amplitude cos(...)),
        rotated exactly by omega dt per step. The states are the columns of
        one block X, whose z is set from each column's own jump start time,
        so no rotation error carries over from one jump to the next; a jump
        by k is one product T^k X when T^k is kept, else popcount(k)
        products with the binary powers T^(2^i) of the current dt. T^k is
        kept for the k in ``keep``, the jumps a run makes most (see
        ``_matrices``). Saturated terms, jumps whose powers
        do not fit (``fits``), and every jump when ``stepwise`` is set call
        ``step`` at t + s dt for each step s from t and each state instead.
        """
        n, m = self.op.grid.size, self.m
        w = np.asarray(w, dtype=float)
        states = w.reshape(-1, n)
        count = states.shape[0]
        t0 = np.asarray(t, dtype=float)  # one start time, or one per state
        x = np.zeros((n + m + 3 * len(self.v_terms), count))  # (w, zeta, z) in columns
        x[:n] = states.T
        if zeta is not None:
            x[n : n + m] = np.asarray(zeta, dtype=float).reshape(count, m).T
        zeta_shape = (*w.shape[:-1], m)
        out_w = np.empty((len(jumps), *w.shape)) if out_w is None else out_w
        out_zeta = np.empty((*out_w.shape[:-1], m)) if out_zeta is None else out_zeta
        rows = range(len(jumps)) if rows is None else rows
        matrix_bytes = 8 * x.shape[0] ** 2
        stepwise = stepwise or not self.linear
        done, products, last_k = 0, 0, None
        for k, row in zip(jumps, rows):
            if k != last_k:  # the same k asks for the same matrices
                last_k, matrices = k, None
                if k and not stepwise and self.fits(k):
                    matrices = self._matrices(dt, k, keep, matrix_bytes)
            if matrices is None:
                for c, start in enumerate(np.broadcast_to(t0, count)):
                    w_c, zeta_c = x[:n, c].copy(), x[n : n + m, c].copy()
                    for s in range(done, done + k):
                        w_c, zeta_c = self.step(w_c, start + s * dt, dt, zeta_c)
                    x[:n, c], x[n : n + m, c] = w_c, zeta_c
            else:
                if self.v_terms:
                    x[n + m :] = self._exo(t0 + done * dt)
                for power in matrices:
                    x = power @ x
                products += len(matrices) * count
            out_w[row] = x[:n].T.reshape(w.shape)
            out_zeta[row] = x[n : n + m].T.reshape(zeta_shape)
            done += k
        self.propagator_products += products
        return out_w, out_zeta

    def _matrices(self, dt: float, k: int, keep, matrix_bytes: int) -> list[np.ndarray]:
        """The matrices whose product with X takes k steps of dt: [T^k] when
        T^k is kept, else the binary powers of k's set bits, built when
        missing and kept for dt.

        T^k is kept for a k > 1 in ``keep`` while the cap leaves room for it
        next to the powers it needs, and built once: the kept T^s of the
        largest other s in ``keep`` that divides k, raised to k / s by
        squaring, else the product of k's binary powers. Keeping one matrix
        per distinct k would cost more matrix products than it saves when a
        run's records fall at many spacings. The powers come first: kept
        matrices are dropped when the powers of a k need their room. Every
        matrix stays until a new dt drops them all, before its T is built,
        or ``_release`` does.
        """
        if dt != self._powers_dt:
            self._powers, self._kept, self._powers_dt = [], {}, None  # gone before T is built
            self._powers, self._powers_dt = [self._propagator(dt)], dt
        if k > 1 and k in keep and k not in self._kept:
            s = max((s for s in keep if s < k and k % s == 0), default=1)
            base = self._matrices(dt, s, keep, matrix_bytes) if s > 1 else []
            # T^s is one matrix when it is kept or a binary power
            powers = len(self._powers) if len(base) == 1 else max(len(self._powers), k.bit_length())
            if matrix_bytes * (powers + len(self._kept) + 1) <= _PROPAGATOR_BYTES:
                if len(base) == 1:
                    self._kept[k] = np.linalg.matrix_power(base[0], k // s)
                else:
                    self._kept[k] = functools.reduce(np.matmul, self._matrices(dt, k, (), matrix_bytes))
        if k in self._kept:
            return [self._kept[k]]
        if matrix_bytes * (k.bit_length() + len(self._kept)) > _PROPAGATOR_BYTES:
            self._kept = {}  # the powers come first
        while len(self._powers) < k.bit_length():
            self._powers.append(self._powers[-1] @ self._powers[-1])
        return [power for i, power in enumerate(self._powers) if k >> i & 1]

    def _release(self) -> None:
        """Drop the one-step matrix, its powers and this stepper's hold on the
        dense M1^-1; the shared ``inverses`` keep it for the next stepper on
        the operator. A later jump or step builds what it needs again."""
        self._powers, self._kept, self._powers_dt = [], {}, None
        if self._dense:
            self.dt = self._m1_inv = None

    def _exo(self, t: np.ndarray) -> np.ndarray:
        """The exosystem coordinates of the inputs at each of the times t,
        one column per time; value(t) = z[0] + z[1]."""
        z = np.empty((3 * len(self.v_terms), t.size))
        for j, (ts, _) in enumerate(self.v_terms):
            angle = ts.omega * t + ts.phase
            z[3 * j] = ts.offset
            z[3 * j + 1] = ts.amplitude * np.sin(angle)
            z[3 * j + 2] = ts.amplitude * np.cos(angle)
        return z

    def _propagator(self, dt: float) -> np.ndarray:
        """The one-step matrix of (w, zeta, z): ``_trapezoid`` of dt on the
        identity, as one block of right-hand sides, over the exact rotation
        of the exosystem."""
        if dt != self.dt or not self._dense:
            self._factor(dt, dense=True)
        n, m, q = self.op.grid.size, self.m, len(self.v_terms)
        size = n + m + 3 * q
        v0 = np.zeros((n, size))
        v1 = np.zeros((n, size)) if q else v0  # no input: both are zero
        rotations = []
        for j, (ts, b) in enumerate(self.v_terms):
            c, s = math.cos(ts.omega * dt), math.sin(ts.omega * dt)
            col = n + m + 3 * j
            # v(t) = z0 + z1 and v(t + dt) = z0 + c z1 + s z2, times b
            v0[:, col], v1[:, col] = b, b
            v0[:, col + 1], v1[:, col + 1] = b, c * b
            v1[:, col + 2] = s * b
            rotations.append((col, [[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]]))
        eye = np.eye(n + m, size)
        m0 = [d[:, None] for d in self._m0]
        rows = self._trapezoid(eye[:n], eye[n:], v0, v1, 0.0, m0)
        del eye, v0, v1
        T = np.zeros((size, size))
        T[:n], T[n : n + m] = rows
        for col, rotation in rotations:
            T[col : col + 3, col : col + 3] = rotation
        self.propagators_built += 1
        return T


# -- spec-level single-step entry points ---------------------------------------

def step_plant(u, t, dt, problem: SLProblem, nonlinearity: NonlinearTerm | None, v) -> np.ndarray:
    """Single IMEX plant step on the grid implied by len(u).

    Each call rebuilds the grid operator, the stepper and its factorization,
    which cost far more than the step; a loop of steps builds one stepper,
    ``DiscreteObserver(...).plant(...)``, and calls its ``step``.
    """
    op = DiscreteSLOperator(problem, len(u))
    stepper = IMEXStepper(op, nonlinearity or ZeroTerm(), field_signal_from_spec(v))
    return stepper.step(np.asarray(u, dtype=float), t, dt)[0]


def step_observer_predictor(w, zeta, t, dt, design: ObserverDesign, nonlinearity, v_tilde):
    """Single coupled (w, zeta) step for the predictor observer.

    Each call rebuilds the ``DiscreteObserver``, the stepper and its
    factorization, which cost far more than the step; a loop of steps builds
    one stepper, ``DiscreteObserver(...).observer(...)``, and calls its ``step``.
    """
    return DiscreteObserver(design, "predictor", len(w)).observer(
        nonlinearity or ZeroTerm(), field_signal_from_spec(v_tilde)
    ).step(np.asarray(w, dtype=float), t, dt, np.asarray(zeta, dtype=float))


def step_observer_zoh(w, held, t, dt, design: ObserverDesign, nonlinearity, v_tilde):
    """Single observer step with held innovation.

    Each call rebuilds the ``DiscreteObserver``, the stepper and its
    factorization, which cost far more than the step; a loop of steps builds
    one stepper, ``DiscreteObserver(...).observer(...)``, and calls its ``step``.
    """
    return DiscreteObserver(design, "zoh", len(w)).observer(
        nonlinearity or ZeroTerm(), field_signal_from_spec(v_tilde)
    ).step(np.asarray(w, dtype=float), t, dt, np.asarray(held, dtype=float))[0]


class DiscreteObserver:
    """The observer of ``design`` in ``variant`` on ``nodes`` grid points: the
    injection columns ``l_cols`` (n, m), built from the design's first N
    modes resampled on the grid, and rows (m, n) of c_i, k_i, k_i - c_i and
    -L_h c_i times the trapezoid weights. It builds the plant and observer
    steppers on one ``op``, sharing one dense inverse of M1, and owns the
    sample law: a sample reads y = <k, u> + xi with ``k_rows``, and
    ``reset`` turns y into the observer's second state."""

    def __init__(self, design: ObserverDesign, variant: str, nodes: int):
        check_variant(variant)
        self.variant = variant
        self.op = op = DiscreteSLOperator(design.problem, nodes)
        c = np.vstack([ch.approximant.values(op.grid) for ch in design.channels])
        k = np.vstack([ch.kernel.values(op.grid) for ch in design.channels])
        self.l_cols = injection_kernels(design.L, design.basis.resample(nodes, design.N))[0].T
        self.c_rows, self.k_rows, self.gap_rows = c * op.weights, k * op.weights, (k - c) * op.weights
        self.stiff_rows = (-np.vstack([op.apply(ci) for ci in c])) * op.weights
        self._inverses: dict = {}

    def plant(self, nonlinearity: NonlinearTerm, v: SpaceTimeSignal) -> IMEXStepper:
        return IMEXStepper(self.op, nonlinearity, v, inverses=self._inverses)

    def observer(self, nonlinearity: NonlinearTerm, v: SpaceTimeSignal) -> IMEXStepper:
        if self.variant == "predictor":
            return IMEXStepper(self.op, nonlinearity, v, self.l_cols, self.c_rows, self.stiff_rows,
                               self._inverses)
        return IMEXStepper(self.op, nonlinearity, v, self.l_cols, inverses=self._inverses)

    def reset(self, y: np.ndarray, w: np.ndarray) -> np.ndarray:
        """The observer's second state after sampling y with field w: the
        predictor state y - <k - c, w>, or the held innovation <k, w> - y."""
        if self.variant == "predictor":
            return y - self.gap_rows @ w
        return self.k_rows @ w - y


# -- scenario and trajectory ----------------------------------------------------

@dataclass(frozen=True)
class SampleEvent:
    """The j-th sample: its time and the measurement noise xi(t_j) it read."""

    index: int
    t: float
    xi: np.ndarray


@dataclass(frozen=True)
class Scenario:
    """Everything one co-simulation run needs, bound to one grid size, and
    the run's certificate. The run ends at its schedule's horizon.

    ``report`` is derived in ``__post_init__``: the small-gain report of the
    design and variant at the schedule's diameter and ``kappa``, so it
    describes the run that is simulated. ``dataclasses.replace`` re-derives
    it; a kappa outside [0, mu) raises ``KappaOutOfRange`` and an unknown
    variant ``InvalidSpec``. No noise has one form: an empty
    ``disturbances.xi`` becomes m zero ``NoiseSignal``s. A ``dt`` or
    ``snapshot_every`` that is set and not positive, or a noise channel
    count other than 0 or m, raises ``InvalidSpec``.
    """

    design: ObserverDesign
    variant: str  # "predictor" or "zoh"
    schedule: SamplingSchedule
    nodes: int
    u0: object
    w0: object
    nonlinearity: NonlinearTerm = field(default_factory=ZeroTerm)
    disturbances: Disturbances = field(default_factory=Disturbances)
    dt: float | None = None  # None -> min(dx, h/20)
    snapshot_every: float | None = None
    label: str = ""
    kappa: float = 0.0
    report: SmallGainReport = field(init=False)

    def __post_init__(self):
        for name in ("dt", "snapshot_every"):
            value = getattr(self, name)
            if value is not None and not value > 0.0:
                raise InvalidSpec(f"{name} must be positive, got {value!r}")
        if not self.disturbances.xi:
            zero = tuple(NoiseSignal(channel=i) for i in range(self.design.m))
            object.__setattr__(self, "disturbances", replace(self.disturbances, xi=zero))
        if len(self.disturbances.xi) != self.design.m:
            raise InvalidSpec("need one noise channel per output channel")
        if self.design.lipschitz_R < self.nonlinearity.lipschitz_R:
            raise ConfigError(
                "design.lipschitz_R",
                f"certificate assumes R = {self.design.lipschitz_R:.6g}, below the "
                f"nonlinearity's Lipschitz bound {self.nonlinearity.lipschitz_R:.6g}",
            )
        report = small_gain(self.design, self.schedule.diameter, self.kappa, self.variant)
        object.__setattr__(self, "report", report)


@dataclass
class Trajectory:
    """Snapshots of plant and observer fields plus per-sample events.

    For the predictor variant ``zeta`` holds the predictor states; for the
    zero-order-hold variant it holds the held innovation values.
    """

    times: np.ndarray
    u: np.ndarray
    w: np.ndarray
    zeta: np.ndarray
    sample_flag: np.ndarray
    events: list[SampleEvent]
    grid: np.ndarray
    error_l2: np.ndarray
    error_sup: np.ndarray
    metadata: dict

    @property
    def weights(self) -> np.ndarray:
        return trapezoid_weights(self.grid)

    def error_fields(self) -> np.ndarray:
        return self.w - self.u

    def validate(self) -> None:
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("snapshot times must be strictly increasing")
        sample_times = {e.t for e in self.events}
        recorded = set(self.times[self.sample_flag].tolist())
        if not sample_times <= recorded:
            raise ValueError("sample events must be a subset of snapshot times")


def simulate(scenario: Scenario) -> Trajectory:
    """Run the co-simulation from t = 0 to the schedule's horizon, sampling
    at the schedule's times up to it; deterministic given the scenario seeds.

    Sub-steps subdivide each sampling interval exactly, so every sampling
    time is an integrator step boundary and no interpolation happens at
    predictor resets. A scenario whose certificate ``scenario.report`` is
    infeasible (Omega >= 1) still runs, since divergence studies are
    legitimate, but emits a warning; ``analysis.check_run`` then checks no
    bound.

    The record plan (``_record_plan``) fixes before any step every
    interval's step count and dt, the steps at which a record falls, and so
    every record time and sample flag; the trajectory arrays are allocated
    once from it. The plant then runs through the whole plan, and the
    observer after it, each in one pass (``_fill``); the observer's reset at
    a sample reads the plant's row there.

    One ``DiscreteObserver`` of the scenario's variant builds both steppers
    and resets the observer at every sample; only what it is handed differs
    between coordinates.

    A linear run (phi the identity) carries the observer in error
    coordinates (w - u, zeta - C u; the held innovation for the hold
    observer), resets it from the noise alone (y - <k, u> = xi), and
    rebuilds every row's w = u + e and zeta = z + C u once, after both
    passes, so the error is never the difference of two propagated fields.
    An interval whose dt equals the previous interval's or the next one's
    (up to the rounding of the sample times) is propagated, so a uniform
    schedule of two or more intervals steps at most a shorter last one; a
    one-interval run, an interval whose dt no neighbour shares, and every
    step of a nonlinear run call ``step``. Each stepper keeps, per dt, the
    powers for the plan's most frequent interval step count and interior
    jump (``_kept_jumps``). ``metadata["integrator"]`` counts the steps
    taken, the one-step matrices built and the products with them, one per
    matrix and state. The error norms are ``snapshot_norms`` of w - u a
    block of rows at a time, with the bits of the whole array's (see
    ``grids._row_blocks``).
    """
    design = scenario.design
    sch = scenario.schedule

    discrete = DiscreteObserver(design, scenario.variant, scenario.nodes)
    grid, weights = discrete.op.grid, discrete.op.weights
    nl = scenario.nonlinearity
    dist = scenario.disturbances

    report = scenario.report
    if not report.feasible:
        warnings.warn(f"small-gain value {report.omega:.4g} >= 1 at diameter {report.h:.4g} and "
                      f"kappa {report.kappa:.4g}; convergence is not certified", stacklevel=2)

    u = _initial_field(scenario.u0, discrete.op)
    w = _initial_field(scenario.w0, discrete.op)

    plant = discrete.plant(nl, dist.v)
    # a linear run integrates the observer error (w - u, zeta - C u), driven
    # by v~ - v and measuring only the noise; a nonlinear one (w, zeta) itself
    linear = plant.linear
    obs = discrete.observer(nl, _difference(dist.v_tilde, dist.v) if linear else dist.v_tilde)
    # the held innovation reads the same in both coordinates
    c_rows = discrete.c_rows if obs.coupled else np.zeros_like(discrete.c_rows)
    x = w - u if linear else w  # the observer's field in its own coordinates

    dx = grid[1] - grid[0]
    dt_target = scenario.dt if scenario.dt is not None else min(dx, sch.diameter / 20.0)
    snap_every = (
        scenario.snapshot_every if scenario.snapshot_every is not None else sch.horizon / 512.0
    )
    # an explicit schedule may declare a horizon before its last sample
    sample_times = sch.times[sch.times <= sch.horizon + 1e-12]
    times, flags, plan = _record_plan(sample_times, sch.horizon, dt_target, snap_every, linear)
    # a jump whose record is a duplicate writes the row after the last one,
    # which the next record overwrites, or one spare row past the end
    n_rows = max([len(times)] + [iv.row + len(iv.jumps) + 1 for iv in plan])
    u_arr, w_arr = np.empty((n_rows, u.size)), np.empty((n_rows, u.size))
    z_arr = np.empty((n_rows, design.m))
    events: list[SampleEvent] = []

    def reset(j: int, x: np.ndarray) -> np.ndarray:
        # the sample reads y = <k, u> + xi from the plant's row; y - <k, u> is
        # the noise alone in error coordinates
        t = float(sample_times[j])
        xi = np.array([s.value(t, j) for s in dist.xi])
        events.append(SampleEvent(j, t, xi))
        return discrete.reset(xi if linear else discrete.k_rows @ u_arr[plan[j].row] + xi, x)

    keep = _kept_jumps(plan)
    _fill(plant, sample_times, plan, keep, u, u_arr)
    _fill(obs, sample_times, plan, keep, x, w_arr, z_arr, reset)

    # the rows hold the observer in its own coordinates
    u_arr, w_arr, z_arr = u_arr[: len(times)], w_arr[: len(times)], z_arr[: len(times)]
    if linear:
        w_arr += u_arr
        # c_rows @ u of each row, as a stack of products: the same bits as
        # one product per row, which one (rows, n) @ (n, m) is not
        z_arr += (c_rows @ u_arr[:, :, None])[..., 0]
    # the error norms a block of rows at a time, not from one (rows, n) w - u
    err_l2, err_sup = np.empty(len(times)), np.empty(len(times))
    for block in _row_blocks(len(times)):
        err_l2[block], err_sup[block] = snapshot_norms(w_arr[block] - u_arr[block], weights)
    traj = Trajectory(
        times=times,
        u=u_arr,
        w=w_arr,
        zeta=z_arr,
        sample_flag=flags,
        events=events,
        grid=grid,
        error_l2=err_l2,
        error_sup=err_sup,
        metadata={
            "variant": scenario.variant,
            "nodes": scenario.nodes,
            "dt_target": dt_target,
            "scheme": "imex-crank-nicolson",
            "diameter": sch.diameter,
            "horizon": sch.horizon,
            "label": scenario.label,
            "integrator": {
                key: getattr(plant, key) + getattr(obs, key)
                for key in ("steps", "propagators_built", "propagator_products")
            },
        },
    )
    traj.validate()
    return traj


def _fill(stepper: IMEXStepper, sample_times: np.ndarray, plan: list, keep: dict, x: np.ndarray,
          out_w: np.ndarray, out_zeta: np.ndarray | None = None, reset=None) -> None:
    """One stepper's pass through a run's record plan, from the state x at the
    first sample: writes its rows of ``out_w`` (and ``out_zeta``), and at
    every sample sets zeta = ``reset(j, x)`` from the state x there.

    The samples come in order, with one ``advance`` call per interval that
    writes straight into the interval's rows: only the last one for a
    propagated interval whose powers for its whole step count fit
    (``IMEXStepper.fits``), which jumps from its sample to its end at once,
    and every row from record to record for any other interval. The interior
    rows of those whole-interval jumps wait for the record pass: the
    intervals that share dt and jumps form one group, whose sample states are
    the columns of one block, and each jump is one product of a power of the
    one-step matrix with that block. It runs for each dt's groups before the
    samples reach an interval propagated at another dt, while the stepper
    holds that dt's matrices, so it builds one one-step matrix per run of
    intervals of one dt; the stepper drops its matrices at the end.
    """
    groups: dict[tuple, list[tuple[float, int]]] = {}  # (dt, interior jumps) -> (t_j, row), one dt

    def record_pass():
        for (dt, jumps), group in groups.items():
            t0, starts = (np.array(column) for column in zip(*group))
            rows = starts + np.arange(1, len(jumps) + 1)[:, None]  # (jumps, intervals)
            # evenly spaced sample rows are read through a view, not a copy
            step = starts[1] - starts[0] if starts.size > 1 else 1
            if np.all(np.diff(starts) == step):
                starts = slice(starts[0], starts[-1] + 1, step)
            zeta = None if out_zeta is None else out_zeta[starts]
            stepper.advance(out_w[starts], t0, dt, jumps, zeta, out_w, out_zeta, keep=keep[dt],
                            rows=rows)
        groups.clear()

    zeta = None
    for j, (t_j, iv) in enumerate(zip(sample_times, plan)):
        t_j = float(t_j)
        if iv.propagate and groups and iv.dt != next(iter(groups))[0]:
            record_pass()
        if iv.fresh:  # a sample within 1e-14 of the last record only updates its zeta
            out_w[iv.row] = x
        if reset is not None:
            zeta = out_zeta[iv.row] = reset(j, x)
        if not iv.jumps:
            continue
        total = sum(iv.jumps)
        at_once = iv.propagate and len(iv.jumps) > 1 and stepper.fits(total)
        jumps = (total,) if at_once else iv.jumps
        if at_once:
            groups.setdefault((iv.dt, iv.jumps[:-1]), []).append((t_j, iv.row))
        end = iv.row + len(iv.jumps) + 1
        stepper.advance(x, t_j, iv.dt, jumps, zeta, out_w, out_zeta, not iv.propagate,
                        keep.get(iv.dt, ()), range(end - len(jumps), end))
        x = out_w[end - 1]  # advance reads its start state before it writes a row
    record_pass()
    stepper._release()


@dataclass(frozen=True)
class _Interval:
    """One sampling interval of a record plan: the sample's record ``row``
    (``fresh`` False when the sample shares the record before it), and the
    steps of size ``dt`` from record to record up to the interval's end,
    ``jumps[i]`` ending in row ``row + 1 + i``; ``propagate`` selects the
    powers of the one-step matrix over ``step``."""

    row: int
    fresh: bool
    dt: float = 0.0
    jumps: tuple[int, ...] = ()
    propagate: bool = False


def _record_plan(sample_times: np.ndarray, horizon: float, dt_target: float, snap_every: float,
                 linear: bool) -> tuple[np.ndarray, np.ndarray, list[_Interval]]:
    """The record times, sample flags and per-interval plan of a run.

    Every sample is a record, and so is the horizon after the last one;
    inside an interval a record falls at the first step at or past the due
    time (``_next_record``), which starts one ``snap_every`` after the
    sample and advances by one ``snap_every`` per record. A record within
    1e-14 of the one before is not added: a sample there flags that record,
    and a jump ending there is merged into the next one, or, when it ends
    the interval, writes the row after the last. Each interval's step count
    and dt come from ``_subdivide``. A linear run propagates an interval
    that shares its dt with the previous interval, whose dt it takes, or
    with the next one, which takes this one's; a dt no neighbour shares is
    stepped.
    """
    ends = [float(t) for t in sample_times[1:]] + [horizon]
    intervals = [_subdivide(t1 - float(t0), dt_target) for t0, t1 in zip(sample_times, ends)]
    times: list[float] = []
    flags: list[bool] = []
    plan: list[_Interval] = []
    next_snap, prev_dt = 0.0, None
    for j, t_j in enumerate(sample_times):
        t_j = float(t_j)
        fresh = not times or t_j > times[-1] + 1e-14
        if fresh:
            times.append(t_j)
            flags.append(True)
        else:
            flags[-1] = True
        row = len(times) - 1
        next_snap = max(next_snap, t_j) + snap_every
        if intervals[j] is None:
            plan.append(_Interval(row, fresh))
            continue
        n_sub, dt = intervals[j]
        following = intervals[j + 1] if j + 1 < len(intervals) else None
        if linear and prev_dt is not None and _same_dt(dt, prev_dt, n_sub, ends[j]):
            dt, propagate = prev_dt, True
        else:
            propagate = (linear and following is not None
                         and _same_dt(following[1], dt, following[0], ends[j + 1]))
        prev_dt = dt
        jumps, done, recorded = [], 0, 0
        while done < n_sub:
            done = _next_record(t_j, dt, done, n_sub, next_snap - 1e-12)
            if done < n_sub:
                t = t_j + done * dt
                if t > times[-1] + 1e-14:
                    times.append(t)
                    flags.append(False)
                    jumps.append(done - recorded)
                    recorded = done
                next_snap += snap_every
        jumps.append(n_sub - recorded)
        if j + 1 == len(sample_times) and horizon > times[-1] + 1e-14:
            times.append(horizon)
            flags.append(False)
        plan.append(_Interval(row, fresh, dt, tuple(jumps), propagate))
    return np.asarray(times), np.asarray(flags, dtype=bool), plan


def _kept_jumps(plan: list[_Interval]) -> dict[float, tuple[int, ...]]:
    """For each dt of the propagated intervals, the jumps whose matrices a
    stepper keeps: the most frequent interval step count and the most
    frequent interior jump, which is the record spacing in steps."""
    counts: dict[float, tuple[Counter, Counter]] = {}
    patterns = Counter((iv.dt, iv.jumps) for iv in plan if iv.propagate)
    for (dt, jumps), count in patterns.items():
        totals, inner = counts.setdefault(dt, (Counter(), Counter()))
        totals[sum(jumps)] += count
        for k in jumps[:-1]:
            inner[k] += count
    return {dt: tuple(c.most_common(1)[0][0] for c in pair if c) for dt, pair in counts.items()}


def _subdivide(gap: float, dt_target: float) -> tuple[int, float] | None:
    """(n_sub, dt): the fewest steps of at most dt_target (up to rounding)
    that subdivide a sampling interval of length gap exactly; None for an
    empty interval."""
    if gap <= 1e-14:
        return None
    n_sub = max(1, math.ceil(gap / dt_target - 1e-9))
    return n_sub, gap / n_sub


def _same_dt(dt: float, other: float, n_sub: int, t_end: float) -> bool:
    """True when an interval of n_sub steps of dt ending at t_end may take
    other instead: the two differ only by the rounding of the sample times."""
    return abs(dt - other) * n_sub <= 4.0 * math.ulp(t_end)


def _next_record(t0: float, dt: float, done: int, n_sub: int, due: float) -> int:
    """The first step s in (done, n_sub) with t0 + s dt >= due, else n_sub."""
    s = max(done + 1, math.ceil((due - t0) / dt))
    while s > done + 1 and t0 + (s - 1) * dt >= due:
        s -= 1
    while s < n_sub and t0 + s * dt < due:
        s += 1
    return min(s, n_sub)


def _difference(a: SpaceTimeSignal, b: SpaceTimeSignal) -> SpaceTimeSignal:
    """a - b, as a's terms followed by b's with negated time signals."""
    negated = tuple(
        (TimeSignal(-ts.offset, -ts.amplitude, ts.omega, ts.phase), prof) for ts, prof in b.terms
    )
    return SpaceTimeSignal(terms=a.terms + negated)


def _initial_field(profile_like, op: DiscreteSLOperator) -> np.ndarray:
    vals = pf.as_profile(profile_like, op.grid).values(op.grid)
    vals = np.array(vals, dtype=float)
    scale = max(float(np.max(np.abs(vals))), 1e-300)
    if op.problem.dirichlet_left and abs(vals[0]) > 1e-8 * scale:
        raise InvalidSpec("initial field violates the Dirichlet condition at x = 0")
    if op.problem.dirichlet_right and abs(vals[-1]) > 1e-8 * scale:
        raise InvalidSpec("initial field violates the Dirichlet condition at x = 1")
    return op.pin(vals)
