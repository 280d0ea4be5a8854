//! T2 — §III claim: Distributed Timed Multitasking results "in the
//! elimination of I/O jitter at both actor task and transaction levels".
//!
//! A heavy low-priority actor shares a slow CPU with a fast high-priority
//! actor; we measure the heavy actor's output-publication jitter with
//! deadline latching on (timed multitasking) and off (publish at
//! completion). Expected shape: latched jitter is exactly 0 ns at every
//! load level; unlatched jitter grows with interference.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gmdf_codegen::{compile_system, CompileOptions, InstrumentOptions};
use gmdf_comdes::{
    ActorBuilder, BasicOp, NetworkBuilder, NodeSpec, Port, SignalValue, System, Timing,
};
use gmdf_target::{SimConfig, SimEvent, Simulator};
use std::hint::black_box;

fn contended_system(load_blocks: usize) -> System {
    let heavy_net = {
        let mut b = NetworkBuilder::new()
            .input(Port::real("x"))
            .output(Port::real("y"));
        let mut prev = "x".to_owned();
        for i in 0..load_blocks {
            let name = format!("p{i}");
            b = b.block(
                &name,
                BasicOp::Pid {
                    kp: 1.0,
                    ki: 0.1,
                    kd: 0.01,
                    lo: -1e9,
                    hi: 1e9,
                },
            );
            b = b.connect(&prev, &format!("{name}.sp")).expect("endpoint");
            prev = format!("{name}.u");
        }
        b.connect(&prev, "y")
            .expect("endpoint")
            .build()
            .expect("net")
    };
    let heavy = ActorBuilder::new("Heavy", heavy_net)
        .input("x", "hx")
        .output("y", "hy")
        .timing(Timing {
            period_ns: 1_000_000,
            offset_ns: 0,
            deadline_ns: 1_000_000,
            priority: 5,
        })
        .build()
        .expect("actor");
    let light_net = NetworkBuilder::new()
        .input(Port::real("x"))
        .output(Port::real("y"))
        .block("g", BasicOp::Gain { k: 1.0 })
        .connect("x", "g.x")
        .expect("endpoint")
        .connect("g.y", "y")
        .expect("endpoint")
        .build()
        .expect("net");
    let light = ActorBuilder::new("Light", light_net)
        .input("x", "lx")
        .output("y", "ly")
        // Non-harmonic with the heavy period (lcm = 33 ms) so the
        // preemption pattern — and thus completion time — varies release
        // to release.
        .timing(Timing {
            period_ns: 330_000,
            offset_ns: 130_000,
            deadline_ns: 330_000,
            priority: 0,
        })
        .build()
        .expect("actor");
    let mut node = NodeSpec::new("ecu", 10_000_000);
    node.actors.push(heavy);
    node.actors.push(light);
    System::new("jitter").with_node(node)
}

fn jitter_ns(system: &System, latch: bool) -> i64 {
    let image = compile_system(
        system,
        &CompileOptions {
            instrument: InstrumentOptions::none(),
            faults: vec![],
        },
    )
    .expect("compiles");
    let mut sim = Simulator::new(
        image,
        SimConfig {
            latch_outputs: latch,
            ..SimConfig::default()
        },
    )
    .expect("boots");
    sim.record_events();
    sim.schedule_signal(0, "hx", SignalValue::Real(1.0))
        .expect("label");
    sim.run_until(60_000_000).expect("runs");
    let times: Vec<u64> = sim
        .events()
        .iter()
        .filter_map(|e| match e {
            SimEvent::Publish {
                time_ns,
                actor,
                label,
                ..
            } if &**actor == "Heavy" && &**label == "hy" => Some(*time_ns),
            _ => None,
        })
        .collect();
    assert!(times.len() > 20, "need many publications");
    let intervals: Vec<i64> = times
        .windows(2)
        .map(|w| w[1] as i64 - w[0] as i64)
        .collect();
    intervals.iter().max().unwrap() - intervals.iter().min().unwrap()
}

fn report_jitter_table() {
    eprintln!("[tab_jitter] Heavy actor output jitter (max-min inter-publication interval):");
    eprintln!("  load_blocks  latched_ns  unlatched_ns");
    for load in [10usize, 25, 45] {
        let system = contended_system(load);
        let latched = jitter_ns(&system, true);
        let unlatched = jitter_ns(&system, false);
        assert_eq!(latched, 0, "timed multitasking must eliminate jitter");
        eprintln!("  {load:>11} {latched:>11} {unlatched:>13}");
    }
}

fn bench_jitter_runs(c: &mut Criterion) {
    report_jitter_table();
    let system = contended_system(25);
    let mut g = c.benchmark_group("tab2/wall_time");
    for latch in [true, false] {
        g.bench_with_input(BenchmarkId::new("latched", latch), &latch, |b, &latch| {
            b.iter(|| black_box(jitter_ns(&system, latch)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_jitter_runs);
criterion_main!(benches);
