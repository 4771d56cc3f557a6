// Fixture: lock-order violations at pinned lines, checked against the
// real crates/lint/lock_order.toml (tcp_fabric aliases apply — the
// fixture is lexed under the file stem "tcp_fabric"). Not compiled.

fn inverted(&self, node: NodeId) {
    let mut space = self.spaces[&node].lock();
    let mut endpoint = self.endpoints.get(&node).lock(); // line 7: spaces→endpoints inversion
    endpoint.ctx();
    space.go();
}

fn reentrant(&self) {
    let a = self.metrics.lock();
    let b = self.metrics.lock(); // line 14: same-mutex re-entry
}

fn fine(&self, node: NodeId) {
    let mut endpoint = self.endpoints.get(&node).lock();
    let mut space = self.spaces[&node].lock();
    drop(space);
    drop(endpoint);
    let held = self.history.lock();
    self.metrics.lock().bump(); // history→metrics: declared order
}
