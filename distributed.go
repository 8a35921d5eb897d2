package hieradmo

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"hieradmo/internal/checkpoint"
	"hieradmo/internal/cluster"
	"hieradmo/internal/fl"
	"hieradmo/internal/transport"
)

// Distributed-execution types, re-exported from the cluster runtime.
type (
	// ClusterOptions tunes a distributed run (adaptation on/off, signal,
	// clamp, receive timeout, quorum fraction, straggler deadline).
	ClusterOptions = cluster.Options
	// ClusterNetwork is the transport factory a distributed run executes
	// over.
	ClusterNetwork = cluster.Network
	// FaultPlan is a deterministic seeded fault schedule for a faulty
	// network: per-link drop rates, message delays, crash-at-round.
	FaultPlan = transport.FaultPlan
	// NetworkLink identifies one directed sender→receiver pair in a
	// FaultPlan.
	NetworkLink = transport.Link
	// FaultReport describes the faults a degraded distributed run survived
	// (carried on Result.FaultReport).
	FaultReport = fl.FaultReport
)

// NewMemoryNetwork returns the in-process message hub (fast, used for
// single-machine runs and tests).
func NewMemoryNetwork() ClusterNetwork { return transport.NewMemoryNetwork() }

// NewTCPNetwork returns the loopback-TCP transport: every node gets its own
// socket and messages are length-prefixed binary frames.
func NewTCPNetwork() ClusterNetwork { return transport.NewTCPNetwork() }

// NewFaultyNetwork composes a deterministic seeded fault schedule (message
// drops, delays, node crashes) over another network, for chaos testing the
// distributed runtime over both the in-memory hub and real sockets. Pair it
// with ClusterOptions.MinQuorum < 1 so the protocol degrades gracefully
// instead of failing stop.
func NewFaultyNetwork(inner ClusterNetwork, plan FaultPlan) ClusterNetwork {
	return transport.NewFaultyNetwork(inner, plan)
}

// RunDistributed executes HierAdMo as a real message-passing protocol (one
// node per worker, edge, and cloud) over the given network. With identical
// Config, the result is bit-identical to New().Run(cfg): the distributed
// protocol performs the same floating-point operations in the same order.
func RunDistributed(cfg *Config, net ClusterNetwork, opts ClusterOptions) (*Result, error) {
	return cluster.Run(cfg, net, opts)
}

// SaveResult writes a run result to path as indented JSON, atomically.
func SaveResult(path string, res *Result) error {
	return writeFileAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	})
}

// LoadResult reads a JSON run result from path.
func LoadResult(path string) (*Result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, fmt.Errorf("hieradmo: result %s: %w", path, err)
	}
	return &res, nil
}

// WriteCurveCSV writes the accuracy/loss curves of one or more results as
// CSV (long format with an algorithm column) for external plotting.
func WriteCurveCSV(w io.Writer, results ...*Result) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"algorithm", "iter", "test_acc", "train_loss"}); err != nil {
		return err
	}
	for _, res := range results {
		for _, p := range res.Curve {
			if err := cw.Write([]string{
				res.Algorithm,
				strconv.Itoa(p.Iter),
				strconv.FormatFloat(p.TestAcc, 'g', -1, 64),
				strconv.FormatFloat(p.TrainLoss, 'g', -1, 64),
			}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// paramsVector names the one vector a parameter checkpoint holds.
const paramsVector = "params"

// SaveCheckpoint writes model parameters, atomically, as a one-vector
// snapshot in the crash-recovery format (magic, version, CRC-32).
func SaveCheckpoint(path string, params []float64) error {
	st := checkpoint.NewState(paramsVector, 0)
	st.Vectors[paramsVector] = params
	return writeFileAtomic(path, func(w io.Writer) error { return checkpoint.Write(w, st) })
}

// LoadCheckpoint reads parameters written by SaveCheckpoint. A file that is
// not such a snapshot fails with an error wrapping checkpoint.ErrFormat.
func LoadCheckpoint(path string) ([]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := checkpoint.Read(f)
	if err != nil {
		return nil, fmt.Errorf("hieradmo: %s: %w", path, err)
	}
	params, ok := st.Vectors[paramsVector]
	if !ok {
		return nil, fmt.Errorf("%w: %s holds no parameter vector", checkpoint.ErrFormat, path)
	}
	return params, nil
}

// writeFileAtomic writes the payload produced by write into path through a
// temp file in the same directory, fsyncing before the rename: a crash at
// any point leaves either the previous file or the complete new one, never
// a truncated artifact.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("hieradmo: write %s: %w", path, err)
	}
	return nil
}
