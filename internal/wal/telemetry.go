package wal

import (
	"time"

	"streamkf/internal/telemetry"
)

// Instruments receives the log's operational telemetry. Any field (or
// the whole struct) may be nil; recording into nil instruments is a
// no-op, matching the internal/telemetry convention.
type Instruments struct {
	// RecordsAppended counts records accepted by Append.
	RecordsAppended *telemetry.Counter
	// BytesAppended counts framed bytes written (payload + overhead).
	BytesAppended *telemetry.Counter
	// Fsyncs counts explicit fsync barriers; FsyncNanos is their
	// latency distribution.
	Fsyncs     *telemetry.Counter
	FsyncNanos *telemetry.Histogram
	// Segments gauges the current number of segment files.
	Segments *telemetry.Gauge
	// Checkpoints counts checkpoints written; CheckpointNanos is the
	// end-to-end checkpoint latency distribution.
	Checkpoints     *telemetry.Counter
	CheckpointNanos *telemetry.Histogram
	// RecoveryNanos gauges the duration of the last recovery
	// (checkpoint restore + replay); RecoveredRecords the number of
	// records replayed by it.
	RecoveryNanos    *telemetry.Gauge
	RecoveredRecords *telemetry.Gauge
}

// NewInstruments registers the WAL metric family on reg.
func NewInstruments(reg *telemetry.Registry) *Instruments {
	return &Instruments{
		RecordsAppended:  reg.Counter("streamkf_wal_records_appended_total", "Records appended to the write-ahead log."),
		BytesAppended:    reg.Counter("streamkf_wal_bytes_appended_total", "Framed bytes appended to the write-ahead log."),
		Fsyncs:           reg.Counter("streamkf_wal_fsyncs_total", "fsync barriers issued by the write-ahead log."),
		FsyncNanos:       reg.Histogram("streamkf_wal_fsync_duration_nanos", "Latency of write-ahead log fsync barriers."),
		Segments:         reg.Gauge("streamkf_wal_segments", "Write-ahead log segment files currently on disk."),
		Checkpoints:      reg.Counter("streamkf_wal_checkpoints_total", "Checkpoints written."),
		CheckpointNanos:  reg.Histogram("streamkf_wal_checkpoint_duration_nanos", "End-to-end checkpoint latency."),
		RecoveryNanos:    reg.Gauge("streamkf_wal_recovery_duration_nanos", "Duration of the last crash recovery."),
		RecoveredRecords: reg.Gauge("streamkf_wal_recovered_records", "WAL records replayed by the last crash recovery."),
	}
}

// observeAppend counts one batch: one Add per counter, whatever its size.
// It, observeFsync and observeSegments are the Log's own hooks, whose
// Instruments are never nil (Options.withDefaults).
func (i *Instruments) observeAppend(records, frameBytes int) {
	i.RecordsAppended.Add(int64(records))
	i.BytesAppended.Add(int64(frameBytes))
}

func (i *Instruments) observeFsync(d time.Duration) {
	i.Fsyncs.Inc()
	i.FsyncNanos.Observe(d.Nanoseconds())
}

func (i *Instruments) observeSegments(n int) {
	i.Segments.SetInt(int64(n))
}

// ObserveCheckpoint records one completed checkpoint.
func (i *Instruments) ObserveCheckpoint(d time.Duration) {
	if i == nil {
		return
	}
	i.Checkpoints.Inc()
	i.CheckpointNanos.Observe(d.Nanoseconds())
}

// ObserveRecovery records the outcome of a completed recovery.
func (i *Instruments) ObserveRecovery(d time.Duration, records int64) {
	if i == nil {
		return
	}
	i.RecoveryNanos.SetInt(d.Nanoseconds())
	i.RecoveredRecords.SetInt(records)
}
