//! The disabled path must be a no-op — this lives in its own test binary
//! so the process-wide enabled flag (off by default) never races the
//! enabled-path tests.

use tesla_obs::{
    counter, gauge, global, global_trace, histogram, span, Counter, Gauge, Histogram, Timer,
};

#[test]
fn everything_is_noop_while_disabled() {
    assert!(!tesla_obs::enabled(), "collection must default to off");

    let c = global().counter("disabled_probe_total", &[]);
    c.inc();
    c.add(10);
    assert_eq!(c.get(), 0);

    let g = global().gauge("disabled_probe_ratio", &[]);
    g.set(1.0);
    assert_eq!(g.get(), 0.0);

    let h = global().histogram("disabled_probe_seconds", &[]);
    h.observe(0.5);
    assert_eq!(h.count(), 0);
    {
        let t = Timer::start(&h);
        assert_eq!(t.elapsed_seconds(), 0.0, "a disabled timer reads no clock");
    }
    assert_eq!(h.count(), 0);

    // The macros hand out the call site's cached handle itself.
    let mc: &'static Counter = counter!("disabled_probe_macro_total");
    let mg: &'static Gauge = gauge!("disabled_probe_macro_ratio");
    let mh: &'static Histogram = histogram!("disabled_probe_macro_seconds");
    mc.inc();
    mg.set(2.0);
    mh.observe(0.25);
    {
        let _t = Timer::start(mh);
    }
    assert_eq!((mc.get(), mg.get(), mh.count()), (0, 0.0, 0));

    {
        let _s = span!("disabled_probe_span", step = 1);
    }
    tesla_obs::event("disabled_probe_event", &[]);
    assert!(global_trace().is_empty());

    // Flipping the switch on makes the same handles live.
    tesla_obs::set_enabled(true);
    c.inc();
    assert_eq!(c.get(), 1);
    mc.inc();
    assert_eq!(global().counter("disabled_probe_macro_total", &[]).get(), 1);
    {
        let _t = Timer::start(mh);
    }
    assert_eq!(mh.count(), 1);
}
