//! The traced-client model: the paper's playback engine (§4.1) attached
//! to the cluster, plus client-side load balancing across front ends
//! (§3.1.2: "Client-side JavaScript support balances load across multiple
//! front ends and masks transient front end failures").

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use sns_core::msg::{ClientRequest, SnsMsg};
use sns_core::payload_as;
use sns_sim::engine::{Component, Ctx};
use sns_sim::hash::FastMap;
use sns_sim::stats::Summary;
use sns_sim::time::SimTime;
use sns_sim::ComponentId;
use sns_tacc::content::ContentObject;
use sns_tacc::origin::FetchRequest;
use sns_workload::trace::TraceRecord;

/// What one client measured.
#[derive(Debug, Default)]
pub struct ClientReport {
    /// Requests sent.
    pub sent: u64,
    /// Responses received.
    pub responses: u64,
    /// Successful responses.
    pub ok: u64,
    /// Error responses.
    pub errors: u64,
    /// Degraded (approximate-answer) responses.
    pub degraded: u64,
    /// Response payload bytes received.
    pub bytes_received: u64,
    /// Requested original bytes (for savings accounting).
    pub bytes_requested: u64,
    /// End-to-end latency summary (seconds).
    pub latency: Summary,
}

impl ClientReport {
    fn new() -> Self {
        ClientReport {
            latency: Summary::with_capacity(16_384),
            ..Default::default()
        }
    }

    /// Fraction of requested bytes saved by distillation.
    pub fn savings(&self) -> f64 {
        if self.bytes_requested == 0 {
            0.0
        } else {
            1.0 - self.bytes_received as f64 / self.bytes_requested as f64
        }
    }
}

/// Shared handle to a client's report (readable after the run).
pub type ClientReportHandle = Rc<RefCell<ClientReport>>;

/// One scheduled request.
struct Item {
    at: Duration,
    record: TraceRecord,
}

/// The playback-engine client component.
pub struct TranSendClient {
    fes: Vec<ComponentId>,
    items: Vec<Item>,
    next_item: usize,
    next_fe: usize,
    start_delay: Duration,
    outstanding: FastMap<u64, (SimTime, u64)>,
    report: ClientReportHandle,
}

impl TranSendClient {
    const SEND: u64 = 1;

    /// Creates a client playing the given retimed requests against the
    /// listed front ends after `start_delay` of cluster warm-up.
    pub fn new(
        fes: Vec<ComponentId>,
        retimed: Vec<(Duration, TraceRecord)>,
        start_delay: Duration,
    ) -> (Self, ClientReportHandle) {
        assert!(!fes.is_empty(), "need at least one front end");
        let report: ClientReportHandle = Rc::new(RefCell::new(ClientReport::new()));
        let items = retimed
            .into_iter()
            .map(|(at, record)| Item { at, record })
            .collect();
        (
            TranSendClient {
                fes,
                items,
                next_item: 0,
                next_fe: 0,
                start_delay,
                outstanding: FastMap::default(),
                report: Rc::clone(&report),
            },
            report,
        )
    }

    fn schedule_next(&mut self, ctx: &mut Ctx<'_, SnsMsg>) {
        let Some(item) = self.items.get(self.next_item) else {
            return;
        };
        let due = SimTime::ZERO + self.start_delay + item.at;
        let now = ctx.now();
        let delay = due.since(now);
        ctx.timer(delay, Self::SEND);
    }

    /// Round-robin over *live* front ends (masking FE failures).
    fn pick_fe(&mut self, ctx: &Ctx<'_, SnsMsg>) -> Option<ComponentId> {
        for _ in 0..self.fes.len() {
            let fe = self.fes[self.next_fe % self.fes.len()];
            self.next_fe += 1;
            if ctx.is_alive(fe) {
                return Some(fe);
            }
        }
        None
    }
}

impl Component<SnsMsg> for TranSendClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_, SnsMsg>) {
        self.schedule_next(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, SnsMsg>, _from: ComponentId, msg: SnsMsg) {
        let SnsMsg::Response(resp) = msg else {
            return;
        };
        let Some((sent_at, size_requested)) = self.outstanding.remove(&resp.id) else {
            return;
        };
        let latency = ctx.now().since(sent_at).as_secs_f64();
        ctx.stats().observe("client.latency_s", latency);
        ctx.stats().incr("client.responses", 1);
        let mut r = self.report.borrow_mut();
        r.responses += 1;
        r.latency.record(latency);
        r.bytes_requested += size_requested;
        if resp.degraded {
            r.degraded += 1;
        }
        match &resp.result {
            Ok(payload) => {
                r.ok += 1;
                let len = payload_as::<ContentObject>(payload)
                    .map(|o| o.len())
                    .unwrap_or_else(|| payload.wire_size());
                r.bytes_received += len;
            }
            Err(_) => {
                r.errors += 1;
                ctx.stats().incr("client.errors", 1);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, SnsMsg>, token: u64) {
        if token != Self::SEND {
            return;
        }
        // Send every item that is due (batches can share a timestamp).
        while self.next_item < self.items.len() {
            let due = SimTime::ZERO + self.start_delay + self.items[self.next_item].at;
            if due > ctx.now() {
                break;
            }
            let i = self.next_item;
            let id = i as u64 + 1;
            self.next_item += 1;
            let Some(fe) = self.pick_fe(ctx) else {
                ctx.stats().incr("client.no_frontend", 1);
                continue;
            };
            let record = &self.items[i].record;
            self.outstanding.insert(id, (ctx.now(), record.size));
            self.report.borrow_mut().sent += 1;
            ctx.stats().incr("client.sent", 1);
            ctx.send(
                fe,
                SnsMsg::Request(Arc::new(ClientRequest {
                    id,
                    user: format!("u{}", record.user),
                    url: record.url.clone(),
                    body: Some(Arc::new(FetchRequest {
                        url: record.url.clone(),
                        mime: record.mime,
                        size: record.size,
                    })),
                })),
            );
        }
        self.schedule_next(ctx);
    }

    fn kind(&self) -> &'static str {
        "client"
    }
}
