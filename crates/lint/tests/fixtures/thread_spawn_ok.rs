fn start_pool(sched: &std::sync::Arc<hyppo_sched::Scheduler<u64>>) -> Vec<std::thread::JoinHandle<()>> {
    // Pool threads come from the scheduler, which owns parking and
    // shutdown; the caller joins the handles it returns.
    sched.spawn_pool("fixture", |sched| loop {
        match sched.next_step() {
            hyppo_sched::Step::Task { .. } => {}
            hyppo_sched::Step::Idle(token) => sched.park(token),
            hyppo_sched::Step::Shutdown => return,
        }
    })
}

fn scoped_helpers(items: &[u64]) -> u64 {
    // `std::thread::scope` blocks until its threads finish, so scoped
    // spawns cannot leak a detached pool — the rule leaves them alone.
    std::thread::scope(|s| s.spawn(|| items.iter().sum()).join().unwrap())
}

fn bench_only_thread() {
    // hyppo-lint: allow(thread-spawn-outside-sched) bench harness needs one bare timer thread
    let t = std::thread::spawn(|| {});
    t.join().unwrap();
}
