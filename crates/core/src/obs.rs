//! Process-global operation counters for the local-search kernels.
//!
//! The hot loops (probe scans, greedy sweeps) tally into locals and
//! flush once per scan/call with a single relaxed `fetch_add`, so the
//! counters cost nothing measurable (the `obs_overhead` bench guards
//! this). Exposed series: `bsp_ls_probes_total` (gain-kernel probes of
//! the one full-neighbourhood scan, `crate::hc::best_admissible`),
//! `bsp_ls_scans_total` (its scans: every steepest-descent round and every
//! tabu iteration), `bsp_ls_moves_total` (moves the greedy and steepest
//! hill climbs accepted), `bsp_ls_visits_total`
//! (hill-climbing visits: only awake nodes are visited,
//! `ScheduleState::is_awake`), `bsp_ls_pruned_total` (visits that
//! `ScheduleState::may_improve` skipped without a probe),
//! `bsp_ls_sleeps_total` (nodes a sweep put to sleep: every pruned visit,
//! and every awake node below the floor it passed), `bsp_ls_wake_all_total`
//! (row refreshes that gained a hot cell and so woke every node, flushed
//! by the next climb on the state),
//! `bsp_ls_certified_total` (visits that passed `may_improve` and were
//! skipped on a
//! standing failure certificate, `ScheduleState::certified`),
//! `bsp_ls_bound_skips_total` (candidates of the remaining visits that
//! the move floor ruled out, `ScheduleState::move_floor` ≥ 0),
//! `bsp_ls_floor_skips_total` (those of them the work-only rise test,
//! `ScheduleState::target_rise` ≥ `ScheduleState::gain_bound`, would have
//! probed: what the floor's transfer rules add) and
//! `bsp_ls_hc_probes_total` (the probes actually run; probes + bound
//! skips = the candidates those visits had).

use std::sync::OnceLock;

pub(crate) struct LsMetrics {
    pub probes: bsp_obs::Counter,
    pub scans: bsp_obs::Counter,
    pub moves: bsp_obs::Counter,
    pub visits: bsp_obs::Counter,
    pub pruned: bsp_obs::Counter,
    pub sleeps: bsp_obs::Counter,
    pub wake_alls: bsp_obs::Counter,
    pub certified: bsp_obs::Counter,
    pub hc_probes: bsp_obs::Counter,
    pub bound_skips: bsp_obs::Counter,
    pub floor_skips: bsp_obs::Counter,
}

pub(crate) fn ls_metrics() -> &'static LsMetrics {
    static METRICS: OnceLock<LsMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = bsp_obs::global();
        LsMetrics {
            probes: reg.counter("bsp_ls_probes_total", &[]),
            scans: reg.counter("bsp_ls_scans_total", &[]),
            moves: reg.counter("bsp_ls_moves_total", &[]),
            visits: reg.counter("bsp_ls_visits_total", &[]),
            pruned: reg.counter("bsp_ls_pruned_total", &[]),
            sleeps: reg.counter("bsp_ls_sleeps_total", &[]),
            wake_alls: reg.counter("bsp_ls_wake_all_total", &[]),
            certified: reg.counter("bsp_ls_certified_total", &[]),
            hc_probes: reg.counter("bsp_ls_hc_probes_total", &[]),
            bound_skips: reg.counter("bsp_ls_bound_skips_total", &[]),
            floor_skips: reg.counter("bsp_ls_floor_skips_total", &[]),
        }
    })
}
