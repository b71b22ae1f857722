"""Modified nodal analysis: compiled system assembly + Newton solver.

A :class:`CompiledCircuit` resolves node names to indices once and splits
the system into a *linear* part (resistors, sources, capacitor companions —
stamped as a constant matrix ``G`` and vector ``b``) and the *nonlinear*
TFT part, evaluated for all devices at once with complex-step derivatives.
Each Newton iteration is then::

    f(x) = G x + b(t) + f_tft(x)        J(x) = G + J_tft(x)

with ``J_tft`` accumulated via ``bincount`` on flattened indices — no
per-element Python work in the hot loop.

A :class:`CircuitBatch` stacks B compiled circuits of one topology and runs
that iteration for all of them at once: ``(B, size)`` state, ``(B, n_tft)``
device parameters, one batched ``np.linalg.solve``. A lone circuit's Newton
solve is the batch of one.

Unknown vector layout: ``x = [node voltages..., vsource branch currents...]``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .netlist import (Capacitor, Circuit, CurrentSource, Resistor, TFT,
                      VoltageSource)

__all__ = ["CircuitBatch", "CompiledCircuit", "NewtonResult"]

_H = 1e-30      # complex-step size
_GMIN = 1e-12   # conductance from every node to ground
_LIVE_CACHE = 16   # live-set entries a CircuitBatch keeps per cache


class _BatchedTFTs:
    """Vectorised evaluation of all TFTs in a circuit.

    Re-implements the unified compact model arithmetic of
    :class:`repro.compact.tft.TFTModel` over arrays of per-device
    parameters; results match per-device evaluation because the formulas
    (and the complex-step trick) are identical.
    """

    def __init__(self, tfts: list):
        self.n = len(tfts)
        if self.n == 0:
            return
        get = lambda attr: np.array([getattr(t.params, attr) for t in tfts])
        self.sign = np.where(
            np.array([t.params.polarity for t in tfts]) == "n", 1.0, -1.0)
        self.vth = get("vth") * self.sign          # mirrored to N-type
        self.mu0 = get("mu0")
        self.gamma = get("gamma")
        self.ss = get("ss")
        self.lambda_cl = get("lambda_cl")
        self.cox = get("cox")
        self.w = get("w")
        self.l = get("l")
        self.i_leak = get("i_leak")
        self.alpha_sat = get("alpha_sat")
        self.m_sat = get("m_sat")
        self.cov = get("cov")
        self.vss_eff = self.ss / np.log(10.0) * (self.gamma + 2.0)
        self.k = (self.w / self.l) * self.mu0 * self.cox / (self.gamma + 2.0)

    _ARRAYS = ("sign", "vth", "mu0", "gamma", "ss", "lambda_cl", "cox", "w",
               "l", "i_leak", "alpha_sat", "m_sat", "cov", "vss_eff", "k")

    @classmethod
    def stack(cls, parts: list) -> "_BatchedTFTs":
        """Several circuits' devices along a leading batch axis: every
        parameter becomes ``(B, n)`` and the formulas broadcast as is."""
        out = cls([])
        out.n = parts[0].n
        if out.n:
            for name in cls._ARRAYS:
                setattr(out, name,
                        np.stack([getattr(p, name) for p in parts]))
        return out

    def take(self, idx: np.ndarray) -> "_BatchedTFTs":
        """The batch members ``idx`` (rows of every ``(B, n)`` parameter):
        the same values as stacking those members' own devices."""
        out = _BatchedTFTs([])
        out.n = self.n
        if self.n:
            for name in self._ARRAYS:
                setattr(out, name, getattr(self, name)[idx])
        return out

    def member_key(self, j: int) -> bytes:
        """Device parameters of batch member ``j``, as bytes."""
        if not self.n:
            return b""
        return b"".join(getattr(self, name)[j].tobytes()
                        for name in self._ARRAYS)

    def _softplus(self, x, scale):
        z = x / scale
        big = np.real(z) > 30.0
        if not big.any():
            # The branch np.where would select everywhere, alone.
            return scale * np.log1p(np.exp(z))
        small_val = np.log1p(np.exp(np.where(big, 0.0, z)))
        big_val = z + np.log1p(np.exp(np.where(big, -z, 0.0)))
        return scale * np.where(big, big_val, small_val)

    def _forward(self, vgs, vds):
        g2 = self.gamma + 2.0
        veff = self._softplus(vgs - self.vth, self.vss_eff) + 1e-12
        vdsat = self.alpha_sat * veff
        ratio = vds / vdsat
        vdeff = vds * (1.0 + ratio ** self.m_sat) ** (-1.0 / self.m_sat)
        drift = self.k * (veff ** g2 - (veff - vdeff) ** g2)
        return (drift * (1.0 + self.lambda_cl * vds)
                + self.i_leak * np.tanh(vds / 0.025))

    def ids(self, vgs, vds):
        """Drain currents [A] for terminal voltages (device order)."""
        vgs = self.sign * vgs
        vds = self.sign * vds
        swap = np.real(vds) < 0
        vgs_eff = np.where(swap, vgs - vds, vgs)
        vds_eff = np.where(swap, -vds, vds)
        out = self._forward(vgs_eff, vds_eff)
        return self.sign * np.where(swap, -out, out)

    def ids_gm_gds(self, vgs, vds):
        """Currents and complex-step derivatives in one stacked call.

        Row 0 perturbs vgs, row 1 perturbs vds; the real parts agree, so a
        single (2, n) evaluation yields ids, gm and gds together.
        """
        vgs2 = np.stack([vgs + 1j * _H, vgs.astype(complex)])
        vds2 = np.stack([vds.astype(complex), vds + 1j * _H])
        out = self.ids(vgs2, vds2)
        i0 = np.real(out[0])
        gm = np.imag(out[0]) / _H
        gds = np.imag(out[1]) / _H
        return i0, gm, gds

    def capacitances(self, vgs, vds):
        """Meyer (cgs, cgd) [F] per device."""
        vgs = self.sign * np.asarray(vgs, dtype=np.float64)
        vds = self.sign * np.asarray(vds, dtype=np.float64)
        swap = vds < 0
        vgs_f = np.where(swap, vgs - vds, vgs)
        vds_f = np.where(swap, -vds, vds)
        veff = self._softplus(vgs_f - self.vth, self.vss_eff) + 1e-12
        vdsat = self.alpha_sat * veff
        ratio = vds_f / vdsat
        vdeff = vds_f * (1.0 + ratio ** self.m_sat) ** (-1.0 / self.m_sat)
        s = vdeff / vdsat
        cox_t = self.cox * self.w * self.l
        vss = self.ss / np.log(10.0)
        on = 1.0 / (1.0 + np.exp(-np.clip((vgs_f - self.vth) / (2 * vss),
                                          -60, 60)))
        cgs_i = cox_t * on * (0.5 + s / 6.0)
        cgd_i = cox_t * on * 0.5 * (1.0 - s)
        cov = self.cov * self.w
        cgs = cgs_i + cov
        cgd = cgd_i + cov
        return (np.where(swap, cgd, cgs), np.where(swap, cgs, cgd))


@dataclass
class NewtonResult:
    x: np.ndarray
    converged: bool
    iterations: int
    residual: float


class _StampSet:
    """Accumulates (row, col, val) conductance triplets, then bakes them
    into a dense G."""

    def __init__(self, size: int):
        self.size = size
        self.rows: list = []
        self.cols: list = []
        self.vals: list = []

    def conductance(self, a: np.ndarray, b_idx: np.ndarray, g: np.ndarray):
        """Two-terminal conductance stamps (vectorised, ground-aware)."""
        for rows, cols, sign in ((a, a, 1.0), (a, b_idx, -1.0),
                                 (b_idx, b_idx, 1.0), (b_idx, a, -1.0)):
            mask = (rows >= 0) & (cols >= 0)
            if mask.any():
                self.rows.append(rows[mask])
                self.cols.append(cols[mask])
                self.vals.append(np.broadcast_to(g, a.shape)[mask] * sign)

    def entry(self, r: int, c: int, v: float):
        self.rows.append(np.array([r], dtype=np.intp))
        self.cols.append(np.array([c], dtype=np.intp))
        self.vals.append(np.array([v]))

    def bake(self) -> np.ndarray:
        G = np.zeros((self.size, self.size))
        if self.rows:
            rows = np.concatenate(self.rows)
            cols = np.concatenate(self.cols)
            vals = np.concatenate(self.vals)
            flat = rows * self.size + cols
            G = np.bincount(flat, weights=vals,
                            minlength=self.size * self.size).reshape(
                                self.size, self.size)
        return G


class CompiledCircuit:
    """Index-resolved circuit ready for DC / transient analysis."""

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.node_names = circuit.nodes()
        self._node_idx = {name: i for i, name in enumerate(self.node_names)}
        self.n_nodes = len(self.node_names)
        self.vsources = circuit.voltage_sources()
        self.n_vsrc = len(self.vsources)
        self.size = self.n_nodes + self.n_vsrc

        def idx(node):
            return -1 if Circuit.is_ground(node) else self._node_idx[node]

        rs = [e for e in circuit.elements if isinstance(e, Resistor)]
        self._r_a = np.array([idx(e.a) for e in rs], dtype=np.intp)
        self._r_b = np.array([idx(e.b) for e in rs], dtype=np.intp)
        self._r_g = np.array([1.0 / e.r for e in rs])

        caps = [e for e in circuit.elements if isinstance(e, Capacitor)]
        self.caps = caps
        self._c_a = np.array([idx(e.a) for e in caps], dtype=np.intp)
        self._c_b = np.array([idx(e.b) for e in caps], dtype=np.intp)
        self._c_val = np.array([e.c for e in caps])

        isrcs = [e for e in circuit.elements if isinstance(e, CurrentSource)]
        self.isources = isrcs
        self._i_p = np.array([idx(e.pos) for e in isrcs], dtype=np.intp)
        self._i_n = np.array([idx(e.neg) for e in isrcs], dtype=np.intp)

        self._v_p = np.array([idx(e.pos) for e in self.vsources],
                             dtype=np.intp)
        self._v_n = np.array([idx(e.neg) for e in self.vsources],
                             dtype=np.intp)

        tfts = circuit.tfts()
        self.tfts = tfts
        self.batched = _BatchedTFTs(tfts)
        self._t_d = np.array([idx(e.drain) for e in tfts], dtype=np.intp)
        self._t_g = np.array([idx(e.gate) for e in tfts], dtype=np.intp)
        self._t_s = np.array([idx(e.source) for e in tfts], dtype=np.intp)

        self._g_static = self._build_static()
        self._solo = None      # CircuitBatch of this circuit alone

    # ------------------------------------------------------------------
    def _build_static(self) -> np.ndarray:
        """Constant conductance matrix: gmin + resistors + vsource rows."""
        st = _StampSet(self.size)
        if len(self._r_g):
            st.conductance(self._r_a, self._r_b, self._r_g)
        for k in range(self.n_vsrc):
            br = self.n_nodes + k
            p, q = self._v_p[k], self._v_n[k]
            if p >= 0:
                st.entry(p, br, 1.0)
                st.entry(br, p, 1.0)
            if q >= 0:
                st.entry(q, br, -1.0)
                st.entry(br, q, -1.0)
        G = st.bake()
        G[np.arange(self.n_nodes), np.arange(self.n_nodes)] += _GMIN
        return G

    # ------------------------------------------------------------------
    def node_index(self, name: str) -> int:
        """Index of a node in the unknown vector (-1 for ground)."""
        if Circuit.is_ground(name):
            return -1
        return self._node_idx[name]

    def vsource_index(self, name: str) -> int:
        """Unknown-vector index of a source's branch current."""
        for k, src in enumerate(self.vsources):
            if src.name == name:
                return self.n_nodes + k
        raise KeyError(f"no voltage source named {name!r}")

    def voltage(self, x: np.ndarray, name: str) -> float:
        i = self.node_index(name)
        return 0.0 if i < 0 else float(x[i])

    # ------------------------------------------------------------------
    def linear_system(self, t: float, source_scale: float = 1.0):
        """DC (G, b) for the linear part, sources evaluated at time ``t``
        and scaled by ``source_scale``."""
        b = np.zeros(self.size)
        for k, src in enumerate(self.isources):
            i = src.value(t) * source_scale
            if self._i_p[k] >= 0:
                b[self._i_p[k]] += i
            if self._i_n[k] >= 0:
                b[self._i_n[k]] -= i
        for k, src in enumerate(self.vsources):
            b[self.n_nodes + k] -= src.value(t) * source_scale
        return self._g_static.copy(), b

    # ------------------------------------------------------------------
    def newton(self, x0: np.ndarray, t: float = 0.0,
               source_scale: float = 1.0, max_iter: int = 60,
               vtol: float = 1e-9, itol: float = 1e-12,
               clamp: float = 1.0) -> NewtonResult:
        """Damped DC Newton iteration from ``x0``: the batch of one."""
        G, b = self.linear_system(t, source_scale)
        if self._solo is None:
            self._solo = CircuitBatch([self])
        x, converged, iterations, res = self._solo.newton(
            np.array(x0, dtype=np.float64)[None], G[None], b[None],
            max_iter=max_iter, vtol=vtol, itol=itol, clamp=clamp)
        return NewtonResult(x[0], bool(converged[0]), int(iterations[0]),
                            float(res[0]))


_TOPOLOGY = ("_r_a", "_r_b", "_c_a", "_c_b", "_i_p", "_i_n", "_v_p", "_v_n",
             "_t_d", "_t_g", "_t_s")


def _pair_stamps(a: np.ndarray, b: np.ndarray) -> list:
    """(rows, cols) of a two-terminal conductance stamp, whose signs are
    ``_PAIR_SIGN``."""
    return [(a, a), (a, b), (b, b), (b, a)]


_PAIR_SIGN = np.array([1.0, -1.0, 1.0, -1.0])[:, None, None]
_TWO_SIGN = np.array([1.0, -1.0])[:, None, None]
_PAIR_ROW_SIGN = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])[:, None, None]


class _Scatter:
    """Sums a whole batch's stamp entries with one ``bincount``.

    ``groups`` lists stamp groups; a group is a list of ``(rows, cols)``
    index arrays of one length (``cols`` None for vector entries), and
    :meth:`__call__` takes one ``(S, B, m)`` weight array per group. With
    ``separate`` every stamp sums into its own ``(B, width)`` block;
    otherwise all entries fold into one block in the order given. Either
    way a member's bins see its entries in the order a lone circuit adds
    them, which keeps every floating-point sum the same, and an entry
    with a grounded terminal adds 0.0 to bin 0, as it does alone.
    """

    def __init__(self, B: int, size: int, groups: list, separate: bool):
        width = size * size if groups[0][0][1] is not None else size
        index, self.masks = [], []
        s = 0
        for group in groups:
            flats, masks = [], []
            for rows, cols in group:
                mask = rows >= 0
                flat = rows
                if cols is not None:
                    mask &= cols >= 0
                    flat = rows * size + cols
                flats.append(np.where(mask, flat, 0))
                masks.append(mask)
            block = np.arange(B)[None, :, None]
            if separate:
                block = block + (s + np.arange(len(group)))[:, None,
                                                            None] * B
            index.append((block * width
                          + np.stack(flats)[:, None, :]).ravel())
            self.masks.append(np.stack(masks)[:, None, :])
            s += len(group)
        self.index = np.concatenate(index)
        self.shape = (s, B, width) if separate else (B, width)
        self.bins = int(np.prod(self.shape))

    def __call__(self, weights: list) -> np.ndarray:
        w = np.concatenate([np.where(m, wt, 0.0).ravel()
                            for m, wt in zip(self.masks, weights)])
        return np.bincount(self.index, weights=w,
                           minlength=self.bins).reshape(self.shape)


class _Gather:
    """Terminal voltages ``X[:, index]`` per terminal row, where index -1
    (ground) reads 0.0."""

    def __init__(self, index: np.ndarray):
        self.mask = index >= 0
        self.index = np.where(self.mask, index, 0)

    def __call__(self, X: np.ndarray) -> np.ndarray:
        v = np.where(self.mask, X[:, self.index], 0.0)
        return v.transpose(1, 0, 2)


class CircuitBatch:
    """B compiled circuits of one topology, solved in lockstep.

    Element values (resistors, capacitors, TFT parameters) stack along a
    leading batch axis and the connectivity is shared. Every stamp sums
    in the order a lone circuit sums it, so each member's matrices,
    Newton iterates and convergence decisions are bit for bit the ones it
    gets when solved alone, whatever else is in the batch.
    """

    def __init__(self, members: list):
        members = list(members)
        if not members:
            raise ValueError("a circuit batch needs at least one circuit")
        first = members[0]
        for j, m in enumerate(members[1:], 1):
            if m.node_names != first.node_names or not all(
                    np.array_equal(getattr(m, k), getattr(first, k))
                    for k in _TOPOLOGY):
                raise ValueError(f"circuit {j} ({m.circuit.title!r}) does "
                                 f"not share circuit 0's topology")
        self.members = members
        self.B = B = len(members)
        self.size = n = first.size
        self.n_nodes = first.n_nodes
        self.n_caps = len(first._c_val)
        self.n_tft = first.batched.n
        self.g_static = np.stack([m._g_static for m in members])
        self.c_val = np.stack([m._c_val for m in members])
        self.tfts = _BatchedTFTs.stack([m.batched for m in members])
        self._i_p, self._i_n = first._i_p, first._i_n

        # Terminal gathers: index -1 (ground) reads 0.0.
        self._c_ab = _Gather(np.stack([first._c_a, first._c_b]))
        self._t_dgs = _Gather(np.stack([first._t_d, first._t_g, first._t_s]))

        # Step matrix G: cap, TFT gate-source and gate-drain stamps;
        # step vector b: their companion currents.
        t_d, t_g, t_s = first._t_d, first._t_g, first._t_s
        pairs = []
        if self.n_caps:
            pairs.append((first._c_a, first._c_b))
        if self.n_tft:
            pairs += [(t_g, t_s), (t_g, t_d)]
        if pairs:
            self._g_scatter = _Scatter(
                B, n, [_pair_stamps(a, b) for a, b in pairs], True)
            self._b_scatter = _Scatter(
                B, n, [[(a, None), (b, None)] for a, b in pairs], False)
        # The most recent live member sets' TFT evaluations and member
        # counts' (f, J) scatters, each bounded to _LIVE_CACHE entries.
        self._parts: OrderedDict = OrderedDict()
        self._tft_scatters: OrderedDict = OrderedDict()

    # ------------------------------------------------------------------
    def member_key(self, j: int) -> bytes:
        """Bytes that determine member ``j``'s DC solution besides its
        sources: the static matrix and the device parameters."""
        return self.g_static[j].tobytes() + self.tfts.member_key(j)

    def cap_voltages(self, X: np.ndarray):
        """(v_a, v_b) at each explicit capacitor's terminals."""
        return self._c_ab(X)

    def tft_voltages(self, X: np.ndarray):
        """(v_d, v_g, v_s) at each TFT's terminals."""
        return self._t_dgs(X)

    # ------------------------------------------------------------------
    def step_system(self, v_src: np.ndarray, i_src: np.ndarray,
                    cap_geq=None, cap_ieq=None, tft_caps=None) -> tuple:
        """Batched (G, b) for one transient step: capacitor and TFT
        companions plus the ``(B, n_vsrc)`` / ``(B, n_isrc)`` source
        values at the step's time."""
        terms = []
        if self.n_caps:
            terms.append((cap_geq, cap_ieq))
        if self.n_tft:
            geq_gs, ieq_gs, geq_gd, ieq_gd = tft_caps
            terms += [(geq_gs, ieq_gs), (geq_gd, ieq_gd)]
        B, n = self.B, self.size
        if terms:
            # Stamps add one after another, as a lone circuit adds them.
            G = (self._g_scatter([g[None] * _PAIR_SIGN for g, _ in terms])
                 .sum(axis=0).reshape(B, n, n) + self.g_static)
            b = self._b_scatter([ieq[None] * _TWO_SIGN for _, ieq in terms])
        else:
            G, b = self.g_static.copy(), np.zeros((B, n))
        for k in range(len(self._i_p)):
            if self._i_p[k] >= 0:
                b[:, self._i_p[k]] += i_src[:, k]
            if self._i_n[k] >= 0:
                b[:, self._i_n[k]] -= i_src[:, k]
        b[:, self.n_nodes:] -= v_src
        return G, b

    def _tft_part(self, idx: np.ndarray):
        """Device parameters plus the f and J scatters (TFT currents into
        f, drain + and source -; the six Jacobian entries, rows d/s x
        cols d/g/s) for the members ``idx``."""
        k = len(idx)

        def scatters():
            first, n = self.members[0], self.size
            t_d, t_g, t_s = first._t_d, first._t_g, first._t_s
            return (_Scatter(k, n, [[(t_d, None), (t_s, None)]], False),
                    _Scatter(k, n, [[(r, c) for r in (t_d, t_s)
                                     for c in (t_d, t_g, t_s)]], True))

        def part():
            tfts = self.tfts if k == self.B else self.tfts.take(idx)
            return (tfts, *_cached(self._tft_scatters, k, scatters))

        return _cached(self._parts, idx.tobytes(), part)

    def tft_contributions(self, X: np.ndarray, idx: np.ndarray):
        """Batched (f_tft, J_tft) of the members ``idx`` at their states
        ``X`` (one row per member in ``idx``)."""
        B, n = len(X), self.size
        if not self.n_tft:
            return np.zeros((B, n)), np.zeros((B, n, n))
        tfts, f_scatter, j_scatter = self._tft_part(idx)
        vd, vg, vs = self.tft_voltages(X)
        i0, gm, gds = tfts.ids_gm_gds(vg - vs, vd - vs)
        f = f_scatter([i0[None] * _TWO_SIGN])
        gmgds = -(gm + gds)
        vals = np.stack([gds, gm, gmgds, gds, gm, gmgds]) * _PAIR_ROW_SIGN
        J = j_scatter([vals]).sum(axis=0).reshape(B, n, n)
        return f, J

    # ------------------------------------------------------------------
    def newton(self, X0: np.ndarray, G: np.ndarray, b: np.ndarray,
               active: np.ndarray | None = None, max_iter: int = 60,
               vtol: float = 1e-9, itol: float = 1e-12,
               clamp: float = 1.0) -> tuple:
        """Damped Newton on ``G x + b + f_tft(x) = 0`` for every active
        member, in lockstep.

        A member leaves the loop at its own exit and its ``x`` is never
        touched again. Returns ``(X, converged, iterations, residual)``,
        each with a leading batch axis; inactive members report
        ``converged=False`` and 0 iterations.
        """
        X = np.array(X0, dtype=np.float64)
        live = (np.ones(self.B, dtype=bool) if active is None
                else np.array(active, dtype=bool))
        converged = np.zeros(self.B, dtype=bool)
        iterations = np.where(live, max_iter, 0)
        res = np.full(self.B, np.inf)
        tol = max(itol, 1e-9)
        for it in range(1, max_iter + 1):
            idx = np.flatnonzero(live)
            if not len(idx):
                break
            # Only live members are evaluated; each one's arithmetic is
            # the same whichever others are live.
            if len(idx) == self.B:
                Xs, Gs, bs = X, G, b
            else:
                Xs, Gs, bs = X[idx], G[idx], b[idx]
            f_tft, J_tft = self.tft_contributions(Xs, idx)
            f = np.matmul(Gs, Xs[:, :, None])[:, :, 0] + bs + f_tft
            r = np.abs(f).max(axis=1)
            res[idx] = r
            step = np.clip(_solve(Gs + J_tft, -f), -clamp, clamp)
            X[idx] += step
            smax = np.abs(step).max(axis=1)
            done = (smax < vtol) & (r < tol)
            stop = done | (smax < vtol * 1e-3)
            converged[idx[done]] = True
            iterations[idx[done]] = it
            live[idx[stop]] = False
        converged |= res < 1e-6
        return X, converged, iterations, res


def _cached(cache: OrderedDict, key, make):
    """``cache[key]``, made on a miss; the cache keeps its
    ``_LIVE_CACHE`` most recently used entries."""
    value = cache.get(key)
    if value is None:
        value = cache[key] = make()
        if len(cache) > _LIVE_CACHE:
            cache.popitem(last=False)
    else:
        cache.move_to_end(key)
    return value


def _solve(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Batched ``solve(A, rhs)``; a singular member falls back to least
    squares on its own."""
    try:
        return np.linalg.solve(A, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        out = np.empty_like(rhs)
        for j in range(len(A)):
            try:
                out[j] = np.linalg.solve(A[j], rhs[j])
            except np.linalg.LinAlgError:
                out[j] = np.linalg.lstsq(A[j], rhs[j], rcond=None)[0]
        return out
