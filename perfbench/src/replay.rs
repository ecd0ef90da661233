//! The benchmark-side stage replay.
//!
//! A fixed sample of each workload's requests is re-run through the public
//! functions of every layer the daemon's solve path crosses — protocol
//! parse, core digest and delta application, relaxation build, cold and
//! warm simplex, rounding, pseudo-schedules, random delays, replication,
//! SUU-I-OBL, the forest blocks and protocol render — each call wrapped in
//! a span. The replay mirrors the daemon's warm-start index (the last basis
//! per structural class), so it reproduces the *served* schedules exactly;
//! the comparison is one of the benchmark's output checks, and it is what
//! makes the per-layer spans describe the computation that was served.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use suu_algorithms::chains::ChainsOptions;
use suu_algorithms::delay::flatten_with_random_delays;
use suu_algorithms::forest::schedule_forest_with;
use suu_algorithms::lp_relaxation::{build_relaxation, FractionalSolution, LpBudget, LpMicros};
use suu_algorithms::pseudo::build_chain_pseudo_schedules;
use suu_algorithms::replicate::{default_sigma, replicate_with_tail};
use suu_algorithms::rounding::round_solution;
use suu_algorithms::suu_i_obl::{suu_i_oblivious_with, SuuIOblLimits};
use suu_core::{ObliviousSchedule, SuuInstance};
use suu_graph::{ChainSet, ForestKind};
use suu_lp::engine::{tableau_cells, DENSE_CELL_THRESHOLD};
use suu_lp::{
    solve_revised_with_basis, solve_warm, Engine, LpSolution, LpStatus, LuFactors, WarmStart,
};
use suu_service::{Request, Response};

/// Every span name the replay records, in pipeline order.
pub const SPANS: [&str; 13] = [
    "protocol.parse",
    "core.canonical_digest",
    "core.apply_delta",
    "algorithms.build_relaxation",
    "lp.solve",
    "lp.solve_warm",
    "algorithms.round_solution",
    "algorithms.pseudo_schedules",
    "algorithms.random_delays",
    "algorithms.replicate",
    "algorithms.suu_i_obl",
    "algorithms.forest",
    "protocol.render",
];

/// One recorded span.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// In-memory span recorder; spans nest through [`Tracer::span`].
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Per span name: `(calls, total self time in ns)`, where self time is
    /// a span's duration minus the durations of its direct children.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += (span.end_ns - span.start_ns).saturating_sub(children);
        }
        out
    }

    /// Writes every span as one JSON line: name, start, end, parent, request.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"index\":{index},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                span.name, span.start_ns, span.end_ns, span.request
            )?;
        }
        out.flush()
    }
}

/// One sampled request: the line that was sent, the tenant base it is a
/// delta against (if any) and the response the daemon served.
pub struct SampleItem {
    pub id: u64,
    pub line: String,
    pub base: Option<SuuInstance>,
    pub served: String,
}

/// Deterministic replay counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    /// Constraint rows of every relaxation built.
    pub lp_rows: u64,
    /// Pivots of cold LP solves (chains relaxations and forest blocks).
    pub lp_pivots: u64,
    /// Phase-1 pivots of the cold chains relaxations.
    pub lp_phase1_pivots: u64,
    /// Pivots of warm-started LP solves.
    pub lp_warm_pivots: u64,
    /// Warm solves replayed.
    pub warm_solves: u64,
    /// Bytes of every rendered response.
    pub response_bytes: u64,
    /// Responses rendered.
    pub responses: u64,
}

/// What the replay computed for one request.
pub struct Replayed {
    pub instance: SuuInstance,
    pub schedule: ObliviousSchedule,
}

/// The replay engine: tracer, counters and the mirrored warm-basis index.
#[derive(Default)]
pub struct Replayer {
    pub tracer: Tracer,
    pub counters: Counters,
    /// Last basis (and LU factors) per structural class, as the daemon's
    /// warm-start index holds it.
    donors: HashMap<u64, (Vec<usize>, Option<LuFactors>)>,
    /// `(warm objective, cold re-solve objective)` of every warm solve.
    pub warm_vs_cold: Vec<(f64, f64)>,
}

struct LpOutcome {
    solution: LpSolution,
    basis: Vec<usize>,
    factors: Option<LuFactors>,
    warm: bool,
}

impl Replayer {
    /// Replays one sampled request under spans and checks the result
    /// against the served response. `Err` names the first difference.
    pub fn replay(&mut self, item: &SampleItem) -> Result<Replayed, String> {
        let mut tracer = std::mem::take(&mut self.tracer);
        tracer.request = item.id;
        let result = tracer.span("request", |t| self.replay_in(t, item));
        self.tracer = tracer;
        result
    }

    fn replay_in(&mut self, t: &mut Tracer, item: &SampleItem) -> Result<Replayed, String> {
        let (request, parsed) = t.span("protocol.parse", |_| {
            let request: Request =
                serde_json::from_str(&item.line).map_err(|e| format!("parse: {e}"))?;
            let instance = match item.base {
                Some(_) => None,
                None => Some(request.to_instance()?),
            };
            Ok::<_, String>((request, instance))
        })?;
        let instance = match (parsed, &item.base) {
            (Some(instance), _) => instance,
            (None, Some(base)) => {
                let delta = request
                    .delta
                    .as_ref()
                    .ok_or("delta request without delta")?;
                t.span("core.apply_delta", |_| base.apply_delta(delta))
                    .map_err(|e| format!("apply_delta: {e}"))?
            }
            (None, None) => unreachable!("a request without a base parses to an instance"),
        };
        t.span("core.canonical_digest", |_| instance.canonical_digest());

        let engine = request.solve_options().engine();
        let (solver, schedule, lp_value, lp_pivots) = match instance.forest_kind() {
            ForestKind::Independent => {
                let out = t
                    .span("algorithms.suu_i_obl", |_| {
                        suu_i_oblivious_with(&instance, &SuuIOblLimits::default())
                    })
                    .map_err(|e| format!("suu-i-obl: {e}"))?;
                ("suu-i-obl", out.schedule, None, None)
            }
            ForestKind::DisjointChains => {
                let (schedule, value, pivots) = self.chains(t, &instance, engine)?;
                ("suu-c", schedule, Some(value), Some(pivots))
            }
            ForestKind::GeneralDag => return Err("general DAG in a benchmark workload".into()),
            _ => {
                let out = t
                    .span("algorithms.forest", |_| {
                        schedule_forest_with(&instance, &ChainsOptions::default())
                    })
                    .map_err(|e| format!("forest: {e}"))?;
                self.counters.lp_pivots += out.lp_pivots as u64;
                ("suu-forest", out.schedule, None, Some(out.lp_pivots))
            }
        };

        let response = Response {
            id: item.id,
            ok: true,
            error: None,
            error_kind: None,
            solver: Some(solver.to_string()),
            cache_hit: false,
            schedule_len: schedule.len(),
            schedule: Some(schedule),
            lp_value,
            lp_pivots,
            lp_micros: lp_pivots.map(|_| 0),
            estimated_makespan: None,
            service_micros: 0,
            degraded: false,
            budget: None,
            trace: None,
        };
        let rendered = t.span("protocol.render", |_| {
            serde_json::to_string(&response).expect("responses serialise")
        });
        self.counters.response_bytes += rendered.len() as u64 + 1;
        self.counters.responses += 1;

        let served: Response =
            serde_json::from_str(&item.served).map_err(|e| format!("served response: {e}"))?;
        if served.solver != response.solver {
            return Err(format!(
                "request {}: served by {:?}, replayed {:?}",
                item.id, served.solver, response.solver
            ));
        }
        if served.lp_pivots != response.lp_pivots {
            return Err(format!(
                "request {}: served {:?} pivots, replayed {:?}",
                item.id, served.lp_pivots, response.lp_pivots
            ));
        }
        if served.lp_value.map(f64::to_bits) != response.lp_value.map(f64::to_bits) {
            return Err(format!(
                "request {}: served lp_value {:?}, replayed {:?}",
                item.id, served.lp_value, response.lp_value
            ));
        }
        if served.schedule != response.schedule {
            return Err(format!(
                "request {}: served schedule differs from the replay",
                item.id
            ));
        }
        Ok(Replayed {
            instance,
            schedule: response
                .schedule
                .expect("replayed responses carry a schedule"),
        })
    }

    /// SUU-C stage by stage, exactly as the daemon's warm-capable chains
    /// solver runs it. Returns the schedule, the LP value and its pivots.
    fn chains(
        &mut self,
        t: &mut Tracer,
        instance: &SuuInstance,
        engine: Engine,
    ) -> Result<(ObliviousSchedule, f64, usize), String> {
        let chains = ChainSet::from_dag(instance.precedence()).ok_or("not chains")?;
        let (lp, x_var, d_var, t_var) = t.span("algorithms.build_relaxation", |_| {
            build_relaxation(instance, Some(&chains))
        });
        self.counters.lp_rows += lp.num_constraints() as u64;
        let options = LpBudget {
            engine,
            ..LpBudget::default()
        }
        .simplex_options();
        let revised = match engine {
            Engine::Revised => true,
            Engine::Dense => false,
            Engine::Auto => tableau_cells(&lp) > DENSE_CELL_THRESHOLD,
        };
        let structural = instance.structural_digest();
        let outcome = if revised {
            let donor = self
                .donors
                .get(&structural)
                .map(|(basis, factors)| WarmStart {
                    basis: basis.clone(),
                    factors: factors.clone(),
                });
            let outcome = match donor {
                Some(donor) => {
                    let warm = t.span("lp.solve_warm", |_| solve_warm(&lp, donor, &options));
                    let warm = warm.map_err(|e| format!("warm solve: {e}"))?;
                    let cold = solve_revised_with_basis(&lp, &options)
                        .map_err(|e| format!("cold re-solve: {e}"))?;
                    self.warm_vs_cold
                        .push((warm.solution.objective, cold.solution.objective));
                    warm
                }
                None => t
                    .span("lp.solve", |_| solve_revised_with_basis(&lp, &options))
                    .map_err(|e| format!("solve: {e}"))?,
            };
            LpOutcome {
                solution: outcome.solution,
                basis: outcome.basis,
                factors: outcome.factors,
                warm: outcome.warm,
            }
        } else {
            let solution = t
                .span("lp.solve", |_| suu_lp::solve(&lp, &options))
                .map_err(|e| format!("solve: {e}"))?;
            LpOutcome {
                solution,
                basis: Vec::new(),
                factors: None,
                warm: false,
            }
        };
        let sol = &outcome.solution;
        if sol.status != LpStatus::Optimal {
            return Err(format!("relaxation reported {:?}", sol.status));
        }
        if outcome.warm {
            self.counters.lp_warm_pivots += sol.iterations as u64;
            self.counters.warm_solves += 1;
        } else {
            self.counters.lp_pivots += sol.iterations as u64;
            self.counters.lp_phase1_pivots += sol.phase1_iterations as u64;
        }
        if !outcome.basis.is_empty() {
            self.donors
                .insert(structural, (outcome.basis.clone(), outcome.factors.clone()));
        }

        let (n, m) = (instance.num_jobs(), instance.num_machines());
        let mut x = vec![vec![0.0f64; n]; m];
        let mut nonzero_x = 0;
        for (i, row) in x_var.iter().enumerate() {
            for &(j, v) in row {
                let value = sol.value(v).max(0.0);
                if value > 1e-9 {
                    nonzero_x += 1;
                }
                x[i][j] = value;
            }
        }
        let d = d_var
            .expect("chains relaxations carry d variables")
            .iter()
            .map(|&v| sol.value(v).max(0.0))
            .collect();
        let frac = FractionalSolution {
            x,
            d,
            t: sol.value(t_var),
            iterations: sol.iterations,
            nonzero_x,
            lp_micros: LpMicros(0),
        };

        let options = ChainsOptions::default();
        let rounded = t
            .span("algorithms.round_solution", |_| {
                round_solution(instance, &frac)
            })
            .map_err(|e| format!("rounding: {e}"))?;
        let per_chain = t.span("algorithms.pseudo_schedules", |_| {
            build_chain_pseudo_schedules(instance, &chains, &rounded)
        });
        let delayed = t.span("algorithms.random_delays", |_| {
            flatten_with_random_delays(&per_chain, m, options.seed, options.delay_tries)
        });
        let sigma = options.sigma.unwrap_or_else(|| default_sigma(n));
        let schedule = t.span("algorithms.replicate", |_| {
            replicate_with_tail(instance, &delayed.schedule, sigma)
        });
        Ok((schedule, frac.t, frac.iterations))
    }
}
