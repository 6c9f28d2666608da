// PASCHED_HOT: the hot-path contract marker. A function annotated with it
// promises the event hot path's discipline — no heap allocation, no
// std::mutex (or any blocking) acquisition, no throw, no blocking I/O in its
// body. The promise is enforced *statically* by pasched-srclint rule PSL403
// (explicit alloc/lock/throw/IO tokens) and by its rules
// PSL601/PSL602 (owning-container declarations and undisciplined container
// growth); at runtime the macro costs nothing (it only forwards the
// compiler's `hot` attribute when available, which nudges block placement).
//
// Annotate the per-event functions (fired once per event or more), not the
// per-window ones: a window barrier or an inbox-mutex swap is allowed to
// block, so it must stay *outside* a PASCHED_HOT function and call into one.
//
// Scope of the static guarantee (see DESIGN.md §5.7): amortized growth
// inside an already-owned member container is allowed only under the
// reserve/reused-scratch discipline PSL602 checks, and must sit inside a
// PASCHED_ALLOC_COLD_REGION (util/allocgate.hpp) so the runtime allocation
// ledger prices it as cold. Functions that scan clean earn a PSL605
// "allocation-free region" claim; the ledger refutes a violated claim at
// runtime as PSL606.
//
// PASCHED_ARENA: the arena-residency contract marker for event payload
// types (heap items, cross-shard envelopes). An annotated struct promises it
// is trivially destructible and trivially copyable and owns no heap memory —
// the slab/free-list storage the engine keeps such values in never runs
// destructors per element and relocates blocks with memcpy semantics.
// Enforced statically by pasched-srclint rule PSL604 (user-declared
// destructor, virtual members, owning members are violations); pair the
// annotation with a static_assert on std::is_trivially_destructible_v /
// std::is_trivially_copyable_v so the compiler enforces what the analyzer
// certifies. The macro itself expands to nothing.
#pragma once

#if defined(__GNUC__) || defined(__clang__)
#define PASCHED_HOT __attribute__((hot))
#else
#define PASCHED_HOT
#endif

#define PASCHED_ARENA
