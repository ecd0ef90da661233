//! End-to-end battery for the v2 solve-options API: budgets, deadlines,
//! cache policies, response projection and their schedule-store key
//! semantics.

mod common;

use std::sync::{Arc, Barrier};

use common::{call, SharedBuf};
use suu_core::InstanceBuilder;
use suu_service::pipeline::{Job, PipelineConfig, SolverPool};
use suu_service::{
    error_kind, CachePolicy, Counter, Detail, EngineChoice, Request, Response, SchedulerService,
    ServiceConfig, SolveOptions, StageContext,
};
use suu_workloads::{random_directed_forest, uniform_matrix};

fn service() -> SchedulerService {
    SchedulerService::new(ServiceConfig::default())
}

/// A forest instance big enough that its (LP1) pipeline needs many pivots.
fn large_forest_request(id: u64) -> Request {
    let n = 24;
    let m = 4;
    let inst = InstanceBuilder::new(n, m)
        .probability_matrix(uniform_matrix(n, m, 0.1, 0.9, 7))
        .precedence(random_directed_forest(n, 8, 7))
        .build()
        .unwrap();
    Request::from_instance(id, &inst)
}

fn chain_request(id: u64) -> Request {
    let inst = InstanceBuilder::new(4, 2)
        .probability_matrix(uniform_matrix(4, 2, 0.3, 0.9, 21))
        .chains(&[vec![0, 1], vec![2, 3]])
        .build()
        .unwrap();
    Request::from_instance(id, &inst)
}

fn with_options(mut request: Request, options: SolveOptions) -> Request {
    request.options = Some(options);
    request
}

#[test]
fn one_pivot_budget_on_a_large_forest_degrades_instead_of_hanging() {
    // The acceptance-criteria scenario: a 1-pivot budget on a large forest
    // instance. Auto-dispatched, the service answers with the degraded
    // serial-baseline fallback (bounded latency) rather than hanging or
    // erroring.
    let svc = service();
    let req = with_options(
        large_forest_request(1),
        SolveOptions {
            max_pivots: Some(1),
            ..SolveOptions::default()
        },
    );
    let resp = call(&svc, &req);
    assert!(resp.ok, "degraded fallback still serves: {:?}", resp.error);
    assert!(resp.degraded);
    assert_eq!(resp.solver.as_deref(), Some("serial-baseline"));
    let budget = resp
        .budget
        .expect("degraded responses carry the post-mortem");
    assert_eq!(budget.exhausted, "pivots");
    assert!(budget.spent_pivots >= 1);
    assert!(resp.schedule.is_some());
}

#[test]
fn forced_solver_with_exhausted_budget_errors_with_budget_exhausted() {
    // Forcing the solver opts out of the degraded fallback: the client asked
    // for that algorithm specifically, so it gets the structured error.
    let svc = service();
    let mut req = with_options(
        large_forest_request(2),
        SolveOptions {
            max_pivots: Some(1),
            ..SolveOptions::default()
        },
    );
    req.solver = Some("suu-forest".to_string());
    let resp = call(&svc, &req);
    assert!(!resp.ok);
    assert_eq!(
        resp.error_kind.as_deref(),
        Some(error_kind::BUDGET_EXHAUSTED)
    );
    assert_eq!(resp.budget.unwrap().exhausted, "pivots");
    assert!(!resp.degraded);
}

#[test]
fn generous_budget_reproduces_the_unbudgeted_response() {
    let svc = service();
    let free = call(&svc, &large_forest_request(3));
    assert!(free.ok);
    let svc2 = service();
    let budgeted = call(
        &svc2,
        &with_options(
            large_forest_request(3),
            SolveOptions {
                max_pivots: Some(10_000_000),
                time_budget_ms: Some(600_000),
                ..SolveOptions::default()
            },
        ),
    );
    assert!(budgeted.ok);
    assert!(!budgeted.degraded);
    assert_eq!(budgeted.schedule, free.schedule);
    assert_eq!(budgeted.lp_pivots, free.lp_pivots);
}

#[test]
fn zero_time_budget_is_deadline_exceeded_without_solving() {
    let svc = service();
    let resp = call(
        &svc,
        &with_options(
            chain_request(4),
            SolveOptions {
                time_budget_ms: Some(0),
                ..SolveOptions::default()
            },
        ),
    );
    assert!(!resp.ok);
    assert_eq!(
        resp.error_kind.as_deref(),
        Some(error_kind::DEADLINE_EXCEEDED)
    );
    assert_eq!(svc.metrics().get(Counter::FreshSolves), 0, "no solver ran");
}

#[test]
fn projection_does_not_fork_the_cache_key() {
    // A full-detail solve warms the cache; a no_schedule request for the
    // same instance must hit that entry (and vice versa) — projection is
    // presentation only.
    let svc = service();
    let first = call(&svc, &chain_request(1));
    assert!(first.ok && !first.cache_hit);

    let trimmed = call(
        &svc,
        &with_options(
            chain_request(2),
            SolveOptions {
                detail: Some(Detail::NoSchedule),
                ..SolveOptions::default()
            },
        ),
    );
    assert!(trimmed.ok);
    assert!(trimmed.cache_hit, "projection must not fork the cache key");
    assert!(trimmed.schedule.is_none());
    assert_eq!(trimmed.schedule_len, first.schedule_len);
    assert_eq!(trimmed.lp_pivots, first.lp_pivots);

    let estimate_only = call(
        &svc,
        &with_options(
            chain_request(3),
            SolveOptions {
                detail: Some(Detail::EstimateOnly),
                ..SolveOptions::default()
            },
        ),
    );
    assert!(estimate_only.ok && estimate_only.cache_hit);
    assert!(estimate_only.schedule.is_none());
    assert!(estimate_only.lp_pivots.is_none());
    assert_eq!(
        svc.metrics().get(Counter::FreshSolves),
        1,
        "exactly one solve total"
    );
}

#[test]
fn projection_does_not_fork_the_single_flight_key() {
    // Concurrent identical instances differing only in projection (and
    // budgets) coalesce onto exactly one fresh solve.
    let svc = Arc::new(service());
    let barrier = Arc::new(Barrier::new(8));
    let handles: Vec<_> = (0..8)
        .map(|k| {
            let svc = Arc::clone(&svc);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let options = SolveOptions {
                    detail: Some(if k % 2 == 0 {
                        Detail::Full
                    } else {
                        Detail::NoSchedule
                    }),
                    max_pivots: Some(1_000_000 + k),
                    ..SolveOptions::default()
                };
                let req = with_options(chain_request(k), options);
                barrier.wait();
                let resp = call(&svc, &req);
                assert!(resp.ok, "error: {:?}", resp.error);
                resp
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    assert_eq!(
        svc.metrics().get(Counter::FreshSolves),
        1,
        "identical instances modulo projection/budget must coalesce"
    );
}

#[test]
fn forced_engines_fork_the_cache_key_but_auto_does_not() {
    let svc = service();
    let auto = call(&svc, &chain_request(1));
    assert!(auto.ok && !auto.cache_hit);

    // Explicit auto is the same artifact as absent options.
    let explicit_auto = call(
        &svc,
        &with_options(
            chain_request(2),
            SolveOptions {
                engine: Some(EngineChoice::Auto),
                ..SolveOptions::default()
            },
        ),
    );
    assert!(explicit_auto.cache_hit, "auto shares the default variant");

    // Forced engines solve (and cache) separately.
    let dense = call(
        &svc,
        &with_options(
            chain_request(3),
            SolveOptions {
                engine: Some(EngineChoice::Dense),
                ..SolveOptions::default()
            },
        ),
    );
    assert!(
        dense.ok && !dense.cache_hit,
        "dense variant is its own entry"
    );
    let dense_again = call(
        &svc,
        &with_options(
            chain_request(4),
            SolveOptions {
                engine: Some(EngineChoice::Dense),
                ..SolveOptions::default()
            },
        ),
    );
    assert!(dense_again.cache_hit);
    let revised = call(
        &svc,
        &with_options(
            chain_request(5),
            SolveOptions {
                engine: Some(EngineChoice::Revised),
                ..SolveOptions::default()
            },
        ),
    );
    assert!(revised.ok && !revised.cache_hit);
    // Same LP, so both engines land on the same optimum.
    assert_eq!(dense.lp_value, revised.lp_value);
}

#[test]
fn cache_policies_bypass_and_refresh() {
    let svc = service();
    let warm = call(&svc, &chain_request(1));
    assert!(warm.ok && !warm.cache_hit);
    assert_eq!(svc.cache().len(), 1);

    // Bypass: fresh solve, no cache interaction.
    let bypass = call(
        &svc,
        &with_options(
            chain_request(2),
            SolveOptions {
                cache: Some(CachePolicy::Bypass),
                ..SolveOptions::default()
            },
        ),
    );
    assert!(bypass.ok && !bypass.cache_hit);
    assert_eq!(svc.cache().len(), 1, "bypass must not grow the cache");
    assert_eq!(svc.metrics().get(Counter::FreshSolves), 2);

    // Refresh: fresh solve, result replaces the entry.
    let refresh = call(
        &svc,
        &with_options(
            chain_request(3),
            SolveOptions {
                cache: Some(CachePolicy::Refresh),
                ..SolveOptions::default()
            },
        ),
    );
    assert!(refresh.ok && !refresh.cache_hit);
    assert_eq!(svc.cache().len(), 1);
    assert_eq!(svc.metrics().get(Counter::FreshSolves), 3);

    // A later default request hits the refreshed entry.
    let hit = call(&svc, &chain_request(4));
    assert!(hit.cache_hit);
    assert_eq!(svc.metrics().get(Counter::FreshSolves), 3);
}

#[test]
fn estimate_only_with_trials_keeps_just_the_estimate() {
    let svc = service();
    let mut req = with_options(
        chain_request(1),
        SolveOptions {
            detail: Some(Detail::EstimateOnly),
            ..SolveOptions::default()
        },
    );
    req.estimate_trials = Some(15);
    let resp = call(&svc, &req);
    assert!(resp.ok);
    assert!(resp.schedule.is_none());
    assert!(resp.lp_value.is_none());
    let est = resp.estimated_makespan.expect("estimate requested");
    assert!(est.is_finite() && est >= 1.0);
}

#[test]
fn expired_jobs_are_dropped_at_dequeue_without_solver_work() {
    use suu_service::ResponseSink;

    let service = Arc::new(SchedulerService::new(ServiceConfig::default()));
    let pool = SolverPool::spawn(
        Arc::clone(&service),
        &PipelineConfig {
            solver_threads: 1,
            queue_capacity: 64,
        },
    );
    let buf = SharedBuf::default();
    let sink = ResponseSink::new(buf.clone());
    let handle = pool.handle();

    // A zero time budget expires the moment the job is accepted: by the
    // time the solver thread dequeues it, it must be dropped unsolved (the
    // deadline is scanned from the line, before any parse).
    let expired_request = with_options(
        large_forest_request(31),
        SolveOptions {
            time_budget_ms: Some(0),
            ..SolveOptions::default()
        },
    );
    handle
        .try_submit(Job::new(
            serde_json::to_string(&expired_request).unwrap(),
            &sink,
        ))
        .unwrap_or_else(|_| panic!("queue has room"));
    let raw = serde_json::to_string(&expired_request)
        .unwrap()
        .replace("\"id\":31", "\"id\":32");
    handle
        .try_submit(Job::new(raw, &sink))
        .unwrap_or_else(|_| panic!("queue has room"));
    // A healthy job behind them still gets served.
    handle
        .try_submit(Job::new(
            serde_json::to_string(&chain_request(33)).unwrap(),
            &sink,
        ))
        .unwrap_or_else(|_| panic!("queue has room"));
    sink.wait_drained();
    pool.shutdown();

    let mut responses: Vec<Response> = buf
        .text()
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    responses.sort_by_key(|r| r.id);
    assert_eq!(responses.len(), 3);
    for resp in &responses[..2] {
        assert!(!resp.ok);
        assert_eq!(
            resp.error_kind.as_deref(),
            Some(error_kind::DEADLINE_EXCEEDED),
            "id {}: {:?}",
            resp.id,
            resp.error
        );
    }
    assert!(responses[2].ok);
    assert_eq!(service.metrics().get(Counter::ExpiredDropped), 2);
    assert_eq!(
        service.metrics().get(Counter::FreshSolves),
        1,
        "expired jobs burn zero solver time"
    );
}

#[test]
fn bad_request_echoes_a_scannable_id() {
    let svc = service();
    let ctx = StageContext::now(0);
    // Broken JSON, but the id field is intact: the client can match the
    // error to its request instead of receiving id 0.
    let out = svc.handle(r#"{"id":77,"num_jobs":"two"}"#, &ctx);
    let resp: Response = serde_json::from_str(&out).unwrap();
    assert!(!resp.ok);
    assert_eq!(resp.error_kind.as_deref(), Some(error_kind::BAD_REQUEST));
    assert_eq!(resp.id, 77);

    // No scannable id still yields 0.
    let out = svc.handle("complete garbage", &ctx);
    let resp: Response = serde_json::from_str(&out).unwrap();
    assert_eq!(resp.id, 0);
}

#[test]
fn rendered_fast_path_projects_no_schedule() {
    // `handle` splices a pre-rendered no_schedule body; the result must
    // parse to exactly the full response, projected.
    let svc = service();
    let ctx = StageContext::now(0);
    let full_line = svc.handle(&serde_json::to_string(&chain_request(1)).unwrap(), &ctx);
    let full: Response = serde_json::from_str(&full_line).unwrap();
    assert!(full.ok && full.schedule.is_some());

    let trimmed_req = with_options(
        chain_request(2),
        SolveOptions {
            detail: Some(Detail::NoSchedule),
            ..SolveOptions::default()
        },
    );
    let trimmed_line = svc.handle(&serde_json::to_string(&trimmed_req).unwrap(), &ctx);
    assert!(
        trimmed_line.len() < full_line.len() / 2,
        "no_schedule line should be much smaller ({} vs {})",
        trimmed_line.len(),
        full_line.len()
    );
    let trimmed: Response = serde_json::from_str(&trimmed_line).unwrap();
    assert!(trimmed.ok);
    assert!(trimmed.cache_hit, "same cache entry as the full request");
    assert!(trimmed.schedule.is_none());

    let projected = full.project(Detail::NoSchedule);
    assert_eq!(trimmed.schedule_len, projected.schedule_len);
    assert_eq!(trimmed.lp_pivots, projected.lp_pivots);
    assert_eq!(trimmed.lp_value, projected.lp_value);
    assert!(projected.schedule.is_none());
}
