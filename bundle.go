package xatu

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/xatu-go/xatu/internal/blocklist"
	"github.com/xatu-go/xatu/internal/ddos"
	"github.com/xatu-go/xatu/internal/routing"
	"github.com/xatu-go/xatu/internal/simnet"
)

// Bundle is a serving bundle: the model directory xatu-train writes,
// loaded into the pieces an Engine's MonitorConfig needs.
type Bundle struct {
	// Models holds the per-attack-type models (<type>.xatu files).
	Models map[AttackType]*Model
	// Default is the shared model (shared.xatu), used for attack types
	// without their own model; nil when absent.
	Default *Model
	// Threshold is the calibrated survival threshold (the threshold file).
	Threshold float64
	// Extractor computes features over the exported auxiliary-signal
	// registries.
	Extractor *FeatureExtractor
	// Missing names the optional registry files that were absent. The
	// signals they feed start empty: blocklists.txt (A1), routes.txt
	// (A3: every source looks unrouted), history.snap (A2/A4/A5 start
	// cold).
	Missing []string
}

// LoadBundle reads a model directory written by xatu-train. At least one
// model and a valid threshold file are required; the blocklist, routing
// and attack-history files are optional (see Bundle.Missing), but a
// present file that fails to parse is an error.
func LoadBundle(dir string) (*Bundle, error) {
	b := &Bundle{Models: map[AttackType]*Model{}}
	var err error
	if b.Default, err = loadModelFile(filepath.Join(dir, "shared.xatu")); err != nil {
		return nil, err
	}
	for at := AttackType(0); at < ddos.NumAttackTypes; at++ {
		m, err := loadModelFile(filepath.Join(dir, at.String()+".xatu"))
		if err != nil {
			return nil, err
		}
		if m != nil {
			b.Models[at] = m
		}
	}
	if b.Default == nil && len(b.Models) == 0 {
		return nil, fmt.Errorf("no models found in %s (run xatu-train first)", dir)
	}
	if b.Threshold, err = loadThreshold(filepath.Join(dir, "threshold")); err != nil {
		return nil, err
	}

	b.Extractor = &FeatureExtractor{
		Blocklists: NewBlocklistRegistry(),
		History:    NewHistoryRegistry(),
		Geo:        simnet.GeoOf,
		A4Window:   72 * time.Hour,
		A5Window:   24 * time.Hour,
	}
	table := &RoutingTable{}
	optional := []struct {
		name string
		load func(*os.File) error
	}{
		{"blocklists.txt", func(f *os.File) error {
			_, err := blocklist.LoadText(f, b.Extractor.Blocklists)
			return err
		}},
		{"routes.txt", func(f *os.File) (err error) {
			table, err = routing.LoadText(f)
			return err
		}},
		{"history.snap", func(f *os.File) error { return b.Extractor.History.Load(f) }},
	}
	for _, o := range optional {
		f, err := os.Open(filepath.Join(dir, o.name))
		if errors.Is(err, fs.ErrNotExist) {
			b.Missing = append(b.Missing, o.name)
			continue
		}
		if err != nil {
			return nil, err
		}
		err = o.load(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", o.name, err)
		}
	}
	b.Extractor.Spoof = NewSpoofChecker(table)
	return b, nil
}

// loadModelFile reads one saved model; a missing file is (nil, nil).
func loadModelFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := LoadModel(f)
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", filepath.Base(path), err)
	}
	return m, nil
}

// loadThreshold parses the first line of the threshold file.
func loadThreshold(path string) (float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	if line = strings.TrimSpace(line); line == "" {
		return 0, fmt.Errorf("empty threshold file %s", path)
	}
	th, err := strconv.ParseFloat(line, 64)
	if err != nil {
		return 0, fmt.Errorf("threshold file %s: %w", path, err)
	}
	return th, nil
}
