//! Quickstart: monitor a tiny program with TaintCheck under the fully
//! accelerated pipeline and catch a control-flow hijack.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use igm::accel::AccelConfig;
use igm::isa::asm::{Addressing, ProgramBuilder};
use igm::isa::{Annotation, Machine, MemSize, Reg};
use igm::lifeguards::TaintCheck;
use igm::sim::Monitor;

fn main() {
    // A little program: read 4 bytes of untrusted input, load them into a
    // register, and jump through that register.
    let mut p = ProgramBuilder::new(0x0804_8000);
    p.annot(Annotation::ReadInput { base: 0x0900_0000, len: 4 });
    p.load(Reg::Eax, Addressing::abs(0x0900_0000, MemSize::B4));
    p.jmp_ind_reg(Reg::Eax);
    p.halt();

    // Execute it: the "attacker" supplies the jump target.
    let mut machine = Machine::new(p.build());
    machine.feed_input(&0x0804_800cu32.to_le_bytes()); // points at the halt
    machine.run().expect("the supplied target is inside the program");

    // Monitor the trace with TaintCheck, all accelerators on.
    let accel = AccelConfig::full();
    let mut monitor = Monitor::new(TaintCheck::new(&accel), &accel);
    monitor.observe_all(machine.trace().iter().copied());

    println!("instructions retired : {}", machine.retired());
    let stats = monitor.dispatch_stats();
    println!("events extracted     : {}", stats.events_extracted);
    println!("delivered to handlers: {}", stats.delivered);
    println!();
    for v in monitor.violations() {
        println!("VIOLATION: {v}");
    }
    assert_eq!(monitor.violations().len(), 1, "the tainted jump must be caught");
    println!("\nTaintCheck caught the tainted indirect jump — before it executed.");
}
