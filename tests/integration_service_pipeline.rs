//! End-to-end pipelining acceptance test: one TCP client sends a 32-request
//! burst (mixed structural classes) back to back, and the pipelined service
//! answers all of them — matched by id, precedence-valid, and at least one
//! out of submission order (the burst opens with a deliberately slow
//! request, so with two solver threads a later cheap request must overtake
//! it).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Arc;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use suu::core::{InstanceBuilder, JobId, SuuInstance};
use suu::graph::Dag;
use suu::service::{
    spawn_tcp, PipelineConfig, Request, Response, SchedulerService, ServiceConfig, TcpServerConfig,
};
use suu::workloads::uniform_matrix;

/// Mixed structural classes keyed by burst position.
fn instance_for(k: u64) -> SuuInstance {
    let seed = 0x9_1DE ^ k;
    match k % 3 {
        0 => InstanceBuilder::new(5, 3)
            .probability_matrix(uniform_matrix(5, 3, 0.3, 0.9, seed))
            .build()
            .unwrap(),
        1 => InstanceBuilder::new(6, 3)
            .probability_matrix(uniform_matrix(6, 3, 0.3, 0.9, seed))
            .chains(&[vec![0, 1, 2], vec![3, 4, 5]])
            .build()
            .unwrap(),
        _ => InstanceBuilder::new(6, 3)
            .probability_matrix(uniform_matrix(6, 3, 0.3, 0.9, seed))
            .precedence(Dag::from_edges(6, [(0, 1), (0, 2), (3, 4), (3, 5)]).unwrap())
            .build()
            .unwrap(),
    }
}

fn assert_schedule_respects_precedence(instance: &SuuInstance, response: &Response) {
    let schedule = response
        .schedule
        .clone()
        .expect("ok responses carry a schedule");
    assert_eq!(schedule.num_machines(), instance.num_machines());
    let mut policy = schedule;
    let mut rng = ChaCha8Rng::seed_from_u64(0x00DE0);
    let (steps, trace) =
        suu::sim::executor::simulate_traced(instance, &mut policy, &mut rng, 1_000_000);
    assert!(steps.is_some(), "schedule must finish every job");
    for (u, v) in instance.precedence().edges() {
        let cu = trace.completion_step(JobId(u)).expect("job u completes");
        let cv = trace.completion_step(JobId(v)).expect("job v completes");
        assert!(cu < cv, "job {u} must strictly precede job {v}");
    }
}

#[test]
fn burst_of_32_is_answered_by_id_and_out_of_order() {
    const BURST: u64 = 32;

    let service = Arc::new(SchedulerService::new(ServiceConfig::default()));
    let handle = spawn_tcp(
        Arc::clone(&service),
        &TcpServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            pipeline: PipelineConfig {
                solver_threads: 2,
                queue_capacity: 64,
            },
        },
    )
    .expect("ephemeral bind succeeds");

    let instances: HashMap<u64, SuuInstance> =
        (1..=BURST).map(|id| (id, instance_for(id))).collect();

    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    // The whole burst goes out before any response is read. Request 1 asks
    // for a heavy Monte-Carlo estimate, pinning one solver thread for many
    // milliseconds while the other drains the cheap remainder — so id 1
    // cannot be the first response.
    for id in 1..=BURST {
        let mut request = Request::from_instance(id, &instances[&id]);
        if id == 1 {
            request.estimate_trials = Some(1_000);
        }
        writeln!(writer, "{}", serde_json::to_string(&request).unwrap()).unwrap();
    }
    writer.flush().unwrap();

    let mut arrival_order = Vec::new();
    let mut responses: HashMap<u64, Response> = HashMap::new();
    for _ in 0..BURST {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).unwrap() > 0,
            "connection died mid-burst"
        );
        let resp: Response = serde_json::from_str(&line).unwrap();
        arrival_order.push(resp.id);
        assert!(
            responses.insert(resp.id, resp).is_none(),
            "duplicate response id"
        );
    }

    // Every id answered exactly once, every schedule valid for *its own*
    // instance (out-of-order delivery must not cross schedules over).
    let mut ids: Vec<u64> = arrival_order.clone();
    ids.sort_unstable();
    assert_eq!(ids, (1..=BURST).collect::<Vec<_>>());
    for (id, resp) in &responses {
        assert!(resp.ok, "id {id}: {:?}", resp.error);
        assert_eq!(resp.id, *id);
        assert_schedule_respects_precedence(&instances[id], resp);
    }
    assert!(
        responses[&1].estimated_makespan.is_some(),
        "the slow request still gets its estimate"
    );

    // The pipelining property: arrival order differs from submission order.
    let submission: Vec<u64> = (1..=BURST).collect();
    assert_ne!(
        arrival_order, submission,
        "a pipelined burst with one slow head must reorder"
    );
    assert_ne!(
        arrival_order[0], 1,
        "the estimate-heavy request cannot arrive first"
    );

    handle.shutdown();
}
