"""Shared builders and independent scalar reference evaluators.

The naive evaluators below recompute effective channels user-by-user with
scalar math/cmath calls.  They share only the RadioConfig-derived constants
with the library, giving the vectorized implementations a second,
structurally different evaluation path to agree with.  The reference_*
functions keep the optimizers' per-candidate gain path (every candidate's
gains recomputed on every update), which the precomputed-grid optimizers
must reproduce bit for bit.
"""

import cmath
import itertools
import math

import numpy as np

import swan_aircomp as sa

CARRIER_HZ = 28e9
WAVELENGTH = sa.SPEED_OF_LIGHT / CARRIER_HZ


def make_config(kappa=0.0, f_c=CARRIER_HZ, n_eff=1.4, p_dbm=10.0,
                noise_dbm=-90.0, delta_min=None):
    if delta_min is None:
        delta_min = (sa.SPEED_OF_LIGHT / f_c) / 2.0
    return sa.RadioConfig(
        f_c=f_c,
        n_eff=n_eff,
        kappa=kappa,
        delta_min=delta_min,
        p_tx=sa.dbm_to_watts(p_dbm),
        noise_var=sa.dbm_to_watts(noise_dbm),
    )


def make_scene(m_segments=3, seg_length=2.0, d_x=20.0, d_y=8.0, height=3.0,
               k=4, seed=11):
    region = sa.ServiceRegion(d_x, d_y)
    layout = sa.build_layout(m_segments, seg_length, region, height)
    users = sa.sample_users(region, k, seed)
    return sa.Scene(layout, users)


def scene_with_users(positions, m_segments=2, seg_length=1.0, d_x=12.0,
                     d_y=6.0, height=3.0):
    """Scene with hand-picked user positions instead of sampled ones."""
    region = sa.ServiceRegion(d_x, d_y)
    layout = sa.build_layout(m_segments, seg_length, region, height)
    return sa.Scene(layout, sa.UserDrop(np.asarray(positions, dtype=float)))


def rows_run_alone(spec):
    """Each row of ``spec``'s experiment, from its cell run alone on a fresh grid table.

    Keyed (drop, sweep value, scheme, kappa), the value is (final_mse hex,
    iterations, evaluations, seed) of the run on that drop's users drawn at
    the sweep value's own K, in a table built for that run alone.
    """
    from swan_aircomp import harness
    from swan_aircomp.channel import DropGrids

    region = sa.ServiceRegion(spec.d_x, spec.d_y)
    out = {}
    for drop in range(spec.n_drops):
        for value in spec.sweep:
            m, seg_len, k = harness._sweep_scene_params(spec, value)
            users = sa.sample_users(region, k, sa.derive_seed(spec.master_seed, drop))
            scene = sa.Scene(sa.build_layout(m, seg_len, region, spec.height), users)
            for scheme in spec.schemes:
                for run_cfg, scenarios in spec.run_configs().items():
                    grids = DropGrids(scene, spec.q_grid, (run_cfg,))
                    rec, seed = harness._run(scheme, run_cfg, scene, spec, drop, grids)
                    for kappa, cfg in scenarios:
                        final = rec.final_mse if cfg is run_cfg else sa.evaluate_placement(
                            cfg, scene, rec.placement)
                        out[drop, float(value), scheme, kappa] = (
                            final.hex(), rec.iterations, rec.evaluations, seed)
    return out


def rows_as_run(rows):
    """``rows_run_alone``'s mapping, of the rows an experiment wrote."""
    return {(r.drop, r.sweep_value, r.scheme, r.kappa): (r.final_mse.hex(), r.iterations,
                                                        r.evaluations, r.seed) for r in rows}


def naive_user_gain(cfg, scene, segment, pa_x, user_ix):
    """Scalar feed-to-user gain, recomputed one factor at a time."""
    feed = float(scene.layout.feed_x[segment])
    ell = pa_x - feed
    guide = 10.0 ** (-cfg.kappa * ell / 20.0) * cmath.exp(-1j * cfg.guided_phase_rate * ell)
    ux = float(scene.users.positions[user_ix, 0])
    uy = float(scene.users.positions[user_ix, 1])
    r = math.sqrt((ux - pa_x) ** 2 + (scene.layout.height ** 2 + uy ** 2))
    free = math.sqrt(cfg.eta) / r * cmath.exp(-1j * cfg.wavenumber * r)
    return guide * free


def naive_combined_channel(cfg, scene, pa_x, phases=None):
    """Per-user combined-feed channel built from scalar per-segment terms."""
    m_seg = scene.layout.m_segments
    out = np.zeros(scene.k, dtype=complex)
    for k in range(scene.k):
        total = 0j
        for m in range(m_seg):
            term = naive_user_gain(cfg, scene, m, float(pa_x[m]), k)
            if phases is not None:
                term *= cmath.exp(1j * float(phases[m]))
            total += term
        out[k] = total / math.sqrt(m_seg)
    return out


def naive_mse(h, p_tx, noise_var):
    """Minimum MSE from the scalar definition, bypassing metrics internals."""
    h = np.asarray(h)
    total = complex(np.sum(h))
    num = p_tx * abs(total) ** 2
    den = p_tx * float(np.sum(np.abs(h) ** 2)) + noise_var
    return len(h) - num / den


def rel_err(a, b):
    scale = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / scale


def reference_ao(cfg, scene, q_grid, pa_x, phases=None, max_iters=100, tol=1e-8, move_pas=True):
    """The AO loop with every candidate's gains recomputed on every update.

    Mirrors the library's alternating sweeps but builds each position
    update's candidates with feasible_grid and one segment_gain_matrix call
    per candidate, so no gain row is ever reused.  Both passes keep a change
    only if the whole channel, rescored with it, has no higher MSE; a
    position update whose winner is the current position changes nothing.
    With ``move_pas`` False a position update scores and counts its
    candidates but keeps every PA, as an AO whose position moves are all
    refused does.  Returns a dict with the final pa_x and phases, the
    trace, the iteration and evaluation counts, and how many grid points
    the spacing rule dropped in total.
    """
    from swan_aircomp.metrics import mse_rows
    from swan_aircomp.audit import _closed_form_phase

    layout = scene.layout
    m_seg = layout.m_segments
    k = scene.k
    scale = 1.0 / math.sqrt(m_seg)
    psis = np.array(pa_x, dtype=float)
    thetas = None if phases is None else np.array(phases, dtype=float)
    base = np.vstack([sa.segment_gain_matrix(cfg, scene, m, [psis[m]])[0] for m in range(m_seg)])

    def total():
        s = base * scale
        if thetas is not None:
            s = s * np.exp(1j * thetas)[:, None]
        return s

    def rest(rows, m):
        if m_seg == 1:
            return np.zeros(k, dtype=complex)
        return rows[[i for i in range(m_seg) if i != m]].sum(axis=0)

    current = float(mse_rows(total().sum(axis=0), cfg.p_tx, cfg.noise_var))
    evaluations, trace, iterations, dropped = 1, [current], 0, 0
    for sweep in range(max_iters):
        sweep_start = current
        if thetas is not None:
            for m in range(m_seg):
                b = rest(total(), m)
                theta_new, _ = _closed_form_phase(
                    base[m] * scale, b, cfg.noise_var / cfg.p_tx, float(thetas[m])
                )
                theta_old = thetas[m]
                thetas[m] = theta_new
                candidate = float(mse_rows(total().sum(axis=0), cfg.p_tx, cfg.noise_var))
                evaluations += 3
                if candidate <= current:
                    current = candidate
                else:
                    thetas[m] = theta_old
        for m in range(m_seg):
            b = rest(total(), m)
            cands = sa.feasible_grid(layout, m, q_grid, np.delete(psis, m), cfg.delta_min)
            dropped += q_grid - cands.size
            cand_arr = np.append(cands, psis[m])
            raw = np.vstack([sa.segment_gain_matrix(cfg, scene, m, [x])[0] for x in cand_arr])
            factor = scale if thetas is None else scale * np.exp(1j * thetas[m])
            mses = mse_rows(b[None, :] + raw * factor, cfg.p_tx, cfg.noise_var)
            j = int(np.argmin(mses))
            evaluations += cand_arr.size
            if move_pas and cand_arr[j] != psis[m]:
                kept = psis[m], base[m].copy()
                psis[m], base[m] = cand_arr[j], raw[j]
                candidate = float(mse_rows(total().sum(axis=0), cfg.p_tx, cfg.noise_var))
                if candidate <= current:
                    current = candidate
                else:
                    psis[m], base[m] = kept
        iterations = sweep + 1
        trace.append(current)
        if sweep_start - current < tol:
            break
    return {"pa_x": psis, "phases": thetas, "trace": tuple(trace),
            "iterations": iterations, "evaluations": evaluations, "dropped": dropped}


def joint_candidates(cfg, scene, positions):
    """Per segment, (positions, share rows) for ``optimizers._joint_scan``.

    A segment's share rows are its ``segment_gain_matrix`` rows at those
    positions times 1 / sqrt(M), the scale the scalar references use.
    """
    scale = 1.0 / math.sqrt(scene.layout.m_segments)
    return [
        (np.asarray(pts, dtype=float), sa.segment_gain_matrix(cfg, scene, m, pts) * scale)
        for m, pts in enumerate(positions)
    ]


def reference_sa1_joint(cfg, scene, cands):
    """SA1 joint grid oracle with one segment_gain_matrix call per tuple entry.

    Returns (best MSE, best pa_x, feasible tuple count).
    """
    from swan_aircomp.metrics import mse_rows

    m_seg = scene.layout.m_segments
    scale = 1.0 / math.sqrt(m_seg)
    best = (math.inf, None)
    count = 0
    for combo in itertools.product(*cands):
        arr = np.asarray(combo)
        if m_seg > 1:
            gaps = np.abs(arr[:, None] - arr[None, :])[np.triu_indices(m_seg, 1)]
            if gaps.min() < cfg.delta_min:
                continue
        count += 1
        h = np.zeros(scene.k, dtype=complex)
        for m in range(m_seg):
            h = h + sa.segment_gain_matrix(cfg, scene, m, [arr[m]])[0] * scale
        val = float(mse_rows(h, cfg.p_tx, cfg.noise_var))
        if val < best[0]:
            best = (val, arr)
    return best[0], best[1], count


def reference_sa2_joint(cfg, scene, cands, theta_grid):
    """Two-segment SA2 joint oracle with per-candidate gain calls.

    Returns (best MSE, best pa_x, best first-segment phase, evaluation count).
    """
    from swan_aircomp.metrics import mse_rows
    from swan_aircomp.optimizers import TWO_PI

    scale = 1.0 / math.sqrt(2.0)
    thetas = np.arange(theta_grid) * (TWO_PI / theta_grid)
    rot = np.exp(1j * thetas)
    best = (math.inf, None, 0.0)
    count = 0
    for x0 in cands[0]:
        row0 = sa.segment_gain_matrix(cfg, scene, 0, [x0])[0] * scale
        for x1 in cands[1]:
            if abs(x0 - x1) < cfg.delta_min:
                continue
            row1 = sa.segment_gain_matrix(cfg, scene, 1, [x1])[0] * scale
            h = row0[None, :] * rot[:, None] + row1[None, :]
            mses = mse_rows(h, cfg.p_tx, cfg.noise_var)
            j = int(np.argmin(mses))
            count += thetas.size
            if float(mses[j]) < best[0]:
                best = (float(mses[j]), np.array([x0, x1]), float(thetas[j]))
    return best[0], best[1], best[2], count
