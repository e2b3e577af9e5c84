"""Streaming ingest demo: a simulated fleet of touch devices.

The paper's device measures one subject; a deployed service ingests
thousands concurrently.  This example simulates that shape end to end:

1. a :class:`~repro.ingest.fleet.DeviceFleet` of six touch devices —
   different subjects, arm positions and start offsets — streams its
   measurements as 1.5 s chunks interleaved in arrival order;
2. the chunks flow through a small bounded work queue, so the
   producer feels backpressure whenever analysis falls behind;
3. a :class:`~repro.ingest.streaming.StreamingExecutor` conditions
   each chunk causally as it lands (the live preview a device UI
   would show) and, when a session's trailer arrives, runs the full
   offline chain — producing exactly the result a batch run over the
   same recordings yields, per payload: Z0, LVET, PEP, HR.

Run:  PYTHONPATH=src python examples/device_fleet.py
"""

from repro.core import process_batch
from repro.ingest import DeviceFleet, FleetConfig, StreamingExecutor


def main() -> None:
    """Stream a six-device fleet and compare with the offline batch."""
    fleet = DeviceFleet(FleetConfig(n_devices=6, duration_s=12.0,
                                    chunk_s=1.5, stagger_s=4.0,
                                    seed=2016))
    executor = StreamingExecutor(n_workers=1, max_chunks=16)

    print("Streaming 6 simulated touch devices (12 s each, 1.5 s "
          "chunks, queue bound 16 chunks)")
    results = executor.run(fleet)

    print("\nPer-session payloads (arrival-ordered finalisation):")
    for session_id in sorted(results):
        session = results[session_id]
        meta = session.recording.meta
        payload = session.result.summary()
        print(f"  {session_id}  subject {int(meta['subject_id'])} "
              f"pos {int(meta['position'])}: "
              f"Z0 {payload['z0_ohm']:6.1f} ohm, "
              f"LVET {payload['lvet_s'] * 1000:4.0f} ms, "
              f"PEP {payload['pep_s'] * 1000:3.0f} ms, "
              f"HR {payload['hr_bpm']:5.1f} bpm "
              f"[{session.n_chunks} chunks, arrived "
              f"{session.first_arrival_s:5.2f}-"
              f"{session.last_arrival_s:5.2f} s]")

    stats = executor.last_queue_stats.as_dict()
    print(f"\nQueue statistics: {stats['total_put']} chunks, peak "
          f"depth {stats['peak_depth']}, peak buffer "
          f"{stats['peak_bytes'] / 1024:.1f} KiB, "
          f"{stats['blocked_puts']} backpressure stalls")

    # The streaming path is pinned to the offline executor: same
    # recordings through process_batch give the same bits.
    offline = process_batch([fleet.synthesize(d) for d in fleet.devices])
    agree = all(
        results[d.session_id].result.z0_ohm == off.z0_ohm
        and results[d.session_id].result.hr_bpm == off.hr_bpm
        for d, off in zip(fleet.devices, offline)
    )
    print(f"Streaming vs offline batch parity: "
          f"{'bit-identical' if agree else 'MISMATCH'}")


if __name__ == "__main__":
    main()
