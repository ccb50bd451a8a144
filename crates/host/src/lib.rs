//! The instrumented simulated host machine that substitutes for the paper's
//! DEC Alpha + ATOM measurement environment.
//!
//! Every interpreter in this workspace is written against [`Machine`]'s
//! *primitives*: one primitive retires one native instruction, counts it,
//! and streams an [`interp_core::InsnRecord`] into the attached
//! [`interp_core::TraceSink`]; the per-phase / per-virtual-command split is
//! settled at each change of attribution state (see [`machine`]).
//! Interpreter runtime state — strings, symbol tables, op-trees, object
//! heaps, guest address spaces — lives in the machine's simulated 32-bit
//! [`mem::Memory`], so data-cache traces are genuine.
//!
//! The crate also provides the "native runtime libraries" the paper
//! discusses: a heap allocator, a string/`memcpy` runtime, hash tables, a
//! simulated filesystem with a warm buffer cache, and a graphics library
//! with a synthetic event queue.
//!
//! # Example
//!
//! ```
//! use interp_core::{CountingSink, Phase};
//! use interp_host::Machine;
//!
//! let mut m = Machine::new(CountingSink::default());
//! m.set_phase(Phase::Execute);
//! let s = m.str_alloc(b"hello");
//! let t = m.str_alloc(b" world");
//! let joined = m.str_concat(s, t);
//! assert_eq!(m.peek_string(joined), "hello world");
//! let (stats, sink) = m.into_parts();
//! assert_eq!(stats.instructions, sink.instructions);
//! ```

pub mod builder;
pub mod fs;
pub mod gfx;
pub mod heap;
pub mod layout;
pub mod machine;
pub mod mem;
pub mod simvec;
pub mod strings;
pub mod table;

pub use builder::StrBuilder;
pub use fs::{FileSystem, FD_CONSOLE};
pub use gfx::{Framebuffer, UiEvent, FB_BASE, HEIGHT, WIDTH};
pub use heap::{Heap, HEAP_BASE, HEAP_END};
pub use layout::{CodeLayout, RoutineId, TEXT_BASE};
pub use machine::{Label, Machine, SysRoutines};
pub use mem::Memory;
pub use simvec::SimVec;
pub use strings::SimStr;
pub use table::SimHash;
