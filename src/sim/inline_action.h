// InlineAction: the event engine's callable, replacing std::function.
//
// std::function<void()> heap-allocates any capture beyond two or three
// pointers, and every scheduled event used to pay that allocation (plus
// the matching free at execution). InlineAction type-erases into a
// 96-byte inline buffer instead — sized so every closure the protocol
// stack schedules fits without touching the heap, including HostBus's
// datagram-delivery closure, whose by-value proto::Message capture is
// the largest thing the hot path ever schedules (~88 bytes). Larger
// callables still work through a heap fallback, so the type is a
// drop-in: only the constant factor changes.
//
// Move-only by design: an event executes exactly once, and the engine
// moves it into its slab entry and out again to run it; copyability
// would force every capture to be copyable and invite accidental
// double-run semantics.
//
// The inline capacity is ≥ 48 by design contract and 96 in practice, so
// the bus delivery closure (this + from + to + proto::Message) stays
// inline; tests/inline_action_test.cpp static-asserts it against the hot
// closures.
#pragma once

#include "util/inline_func.h"

namespace cam {

using InlineAction = InlineFunc<void(), 96>;

}  // namespace cam
