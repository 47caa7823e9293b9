// The worker side of the multi-process deployment: one forked process per
// worker, each hosting its own dist::NetworkSimulator replica. Probes
// arrive through the worker's shared-memory request ring and leave
// through its result ring; the Unix-domain socketpair carries the
// transport::Codec control frames and doorbell bytes. The worker is
// intentionally dumb — it holds no scheduling, timeline, or RNG policy.
// Everything that determines a result (the network, the segment plans,
// the probe's split-off RNG state) arrives from the host, which is what
// makes a worker's answer a pure function of what it was sent and the
// whole deployment bit-identical to the in-process ReplicaPool.
#pragma once

#include <cstdint>

namespace wnf::transport {

/// True when this platform can run the multi-process runtime (POSIX fork +
/// socketpair). When false, WorkerHost construction aborts and callers
/// (tests, benches, examples) should skip gracefully.
bool transport_available();

class WorkerRings;

/// Runs the worker loop on `fd` (the worker end of the pair) and `rings`
/// (the host's pre-fork shared mapping for this worker) until a shutdown
/// frame, EOF (host closed or died), or a protocol violation. Sends a
/// Hello first, then applies kBind/kSegments/kRebind control frames and
/// serves every probe the request ring delivers — a worker outlives any
/// single campaign: a kRebind swaps its whole replica state in place,
/// which is what lets the host reuse one forked fleet across many
/// run_trials cycles. Ring probes whose epoch is ahead of the control
/// frames applied so far are deferred until the in-flight bind/segments
/// lands, so the ring can never overtake the control channel. Returns the
/// process exit code: 0 for a clean shutdown or host EOF, 1 for malformed
/// input or an I/O error. Never returns on unsupported platforms (aborts).
int worker_main(int fd, std::uint32_t worker_index, WorkerRings& rings);

}  // namespace wnf::transport
