package netsim

import "time"

// The paper's testbed devices (§V-D). Median per-iteration compute delays
// are calibrated estimates for CNN-on-MNIST mini-batch training; the
// heterogeneity ratios between devices are what the experiments exercise.
var (
	// LaptopI3 is the Intel Core i3 M380 laptop worker.
	LaptopI3 = DeviceProfile{Name: "laptop-i3-m380", Median: 85 * time.Millisecond, Sigma: 0.18}
	// NubiaZ17s is the Snapdragon 835 phone worker.
	NubiaZ17s = DeviceProfile{Name: "nubia-z17s-sd835", Median: 95 * time.Millisecond, Sigma: 0.22}
	// RealmeGTNeo is the Dimensity 1200 phone worker (fastest).
	RealmeGTNeo = DeviceProfile{Name: "realme-gt-neo-d1200", Median: 55 * time.Millisecond, Sigma: 0.2}
	// RedmiK30Ultra is the Dimensity 1000+ phone worker.
	RedmiK30Ultra = DeviceProfile{Name: "redmi-k30u-d1000p", Median: 62 * time.Millisecond, Sigma: 0.2}
	// MacBookEdge is the MacBook Pro 2018 (i7-8750H) edge aggregator.
	MacBookEdge = DeviceProfile{Name: "macbook-pro-2018", Median: 6 * time.Millisecond, Sigma: 0.1}
	// GPUServerCloud is the 4×RTX-2080Ti tower server cloud aggregator.
	GPUServerCloud = DeviceProfile{Name: "gpu-tower-server", Median: 2 * time.Millisecond, Sigma: 0.1}
)

// The paper's testbed links: workers on 5 GHz Wi-Fi behind a HUAWEI Honor
// X2+ router, the edge node wired to the same router, and the cloud reached
// over the public Internet via a different ISP.
var (
	// WiFi5GHz is the worker↔edge LAN hop.
	WiFi5GHz = LinkProfile{Name: "wifi-5ghz", RTT: 4 * time.Millisecond, Mbps: 300, Jitter: 0.25}
	// WANEdgeCloud is the edge↔cloud public-Internet path (wired uplink).
	WANEdgeCloud = LinkProfile{Name: "wan-edge-cloud", RTT: 40 * time.Millisecond, Mbps: 40, Jitter: 0.35}
	// WANWorkerCloud is the worker↔cloud public-Internet path of a
	// two-level tree, the flat view two-tier algorithms run (Wi-Fi +
	// residential uplink, slower and noisier).
	WANWorkerCloud = LinkProfile{Name: "wan-worker-cloud", RTT: 50 * time.Millisecond, Mbps: 20, Jitter: 0.4}
)

// ModelPayload returns the per-sync Payload for a model of dim float64
// parameters. HierAdMo-style algorithms upload four model-sized vectors
// (model, momentum, and the two interval accumulators of Alg. 1 line 9) and
// download two; momentum-free algorithms move one each way. This is the
// paper's protocol, which Fig. 2(h)/(l) time; the cluster runtime's leaves
// send two vectors and their own eq. (6) term instead.
func ModelPayload(dim int, momentum bool) Payload {
	bytesPerVec := dim * 8
	if momentum {
		return Payload{
			WorkerUp:   4 * bytesPerVec,
			WorkerDown: 2 * bytesPerVec,
			EdgeUp:     2 * bytesPerVec,
			EdgeDown:   2 * bytesPerVec,
		}
	}
	return Payload{
		WorkerUp:   bytesPerVec,
		WorkerDown: bytesPerVec,
		EdgeUp:     bytesPerVec,
		EdgeDown:   bytesPerVec,
	}
}
