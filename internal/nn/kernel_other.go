//go:build !amd64

package nn

// No vector bodies on this architecture: the ReLU passes, the bias sums and
// the pool run their Go loops over every element.

func rectifyVector(x []float64) int { return 0 }

func gateVector(g, out []float64) int { return 0 }

func biasSumsVector(gb, g []float64, plane int) (channels, pixels int) { return 0, 0 }

func (p *MaxPool2D) forwardVector(in, out, idx []float64) int { return 0 }

func (p *MaxPool2D) scatterVector(gradIn, gradOut, idx []float64) int { return 0 }
