//! The per-layer budget of one threaded workload: where the wall time of
//! an average operation goes, as far as it can be told from outside.
//!
//! Every row but the last is `count per operation × unit cost`: the count
//! comes from the workload's own counters, the unit cost from timing the
//! benchmark's calls into that layer or from a probe that drives the
//! layer's public functions on the workload's message mix. The last row is
//! what is left of `wall / ops` — worker scheduling, channel handoffs,
//! waiting — and is labelled as unattributed rather than spread over the
//! rows above. Rows run on several threads in parallel, so the attributed
//! part is CPU spent per operation and may exceed the wall time; the
//! remainder is then negative and printed as such.

/// One budget row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Module name.
    pub layer: String,
    /// How often per operation.
    pub per_op: f64,
    /// Cost of one, microseconds.
    pub unit_us: f64,
}

impl Row {
    /// Microseconds per operation.
    pub fn us_per_op(&self) -> f64 {
        self.per_op * self.unit_us
    }
}

/// A budget table.
#[derive(Debug, Clone, PartialEq)]
pub struct Budget {
    /// Wall time per operation (`1e6 / ops_per_s`), microseconds.
    pub wall_us_per_op: f64,
    /// Attributed rows.
    pub rows: Vec<Row>,
}

impl Budget {
    /// An empty table over `wall_us_per_op`.
    pub fn new(wall_us_per_op: f64) -> Self {
        Budget {
            wall_us_per_op,
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, layer: &str, per_op: f64, unit_us: f64) {
        self.rows.push(Row {
            layer: layer.to_string(),
            per_op,
            unit_us,
        });
    }

    /// `wall − Σ rows`: the part no row explains.
    pub fn unattributed_us(&self) -> f64 {
        self.wall_us_per_op - self.rows.iter().map(Row::us_per_op).sum::<f64>()
    }

    /// The table as text; the rows sum to the wall time per operation.
    pub fn render(&self, workload: &str) -> String {
        let mut out = format!(
            "budget {workload}: wall {:.3} us/op\n  {:<34} {:>10} {:>10} {:>10} {:>7}\n",
            self.wall_us_per_op, "layer", "per op", "unit us", "us/op", "share"
        );
        let share = |us: f64| 100.0 * us / self.wall_us_per_op;
        for r in &self.rows {
            out.push_str(&format!(
                "  {:<34} {:>10.3} {:>10.4} {:>10.3} {:>6.1}%\n",
                r.layer,
                r.per_op,
                r.unit_us,
                r.us_per_op(),
                share(r.us_per_op())
            ));
        }
        let rest = self.unattributed_us();
        out.push_str(&format!(
            "  {:<34} {:>10} {:>10} {:>10.3} {:>6.1}%\n",
            "runtime + scheduling (unattributed)",
            "",
            "",
            rest,
            share(rest)
        ));
        out
    }

    /// One line for the child → parent protocol.
    pub fn encode(&self) -> String {
        let mut out = format!("{}", self.wall_us_per_op);
        for r in &self.rows {
            out.push_str(&format!(";{}={}*{}", r.layer, r.per_op, r.unit_us));
        }
        out
    }

    /// Inverse of [`Self::encode`].
    pub fn decode(line: &str) -> Option<Budget> {
        let mut parts = line.split(';');
        let mut budget = Budget::new(parts.next()?.parse().ok()?);
        for part in parts {
            let (layer, rest) = part.split_once('=')?;
            let (per_op, unit_us) = rest.split_once('*')?;
            budget.row(layer, per_op.parse().ok()?, unit_us.parse().ok()?);
        }
        Some(budget)
    }
}

/// Row names: the client-side calls as timed by the traced driver.
pub const HANDLE: &str = "handle (submit + flush + recv)";
/// Routing and admission, inside every submit.
pub const SHARD: &str = "shard (route + gate)";
/// The protocol state machine.
pub const CORE: &str = "core (protocol steps)";
/// Frame encode and decode.
pub const CODEC: &str = "codec (encode + decode)";
/// Packing frames into container frames.
pub const COALESCER: &str = "coalescer (container frames)";
/// The reliability shim, by differencing.
pub const RELIABLE: &str = "reliable (shim on - shim off)";
/// One in-process handoff with nothing else in flight.
pub const TRANSPORT: &str = "transport (in-process handoff)";
/// What a real socket adds to that handoff.
pub const SOCKET: &str = "socket (TCP - in-process)";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_and_remainder_sum_to_the_wall_time() {
        let mut b = Budget::new(5.7);
        b.row(HANDLE, 5.8, 0.12);
        b.row(CORE, 7.4, 0.18);
        let total: f64 = b.rows.iter().map(Row::us_per_op).sum::<f64>() + b.unattributed_us();
        assert!((total - 5.7).abs() < 1e-12);
        let text = b.render("cluster_mix");
        assert!(text.contains("runtime + scheduling (unattributed)"));
        assert_eq!(text.lines().count(), 2 + 2 + 1);
    }

    #[test]
    fn the_wire_form_round_trips() {
        let mut b = Budget::new(13.25);
        b.row(CODEC, 3.7, 0.13);
        b.row(RELIABLE, 1.0, 7.0);
        assert_eq!(Budget::decode(&b.encode()), Some(b));
        assert_eq!(Budget::decode("1.0;handle=1"), None);
    }
}
