package xatu

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// writeBundleDir writes a model directory with the given files; each
// value is the file content, and "<model>" stands for a saved tiny model.
func writeBundleDir(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	m := tinyModel(t)
	for name, content := range files {
		path := filepath.Join(dir, name)
		if content == "<model>" {
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Save(f); err != nil {
				t.Fatal(err)
			}
			f.Close()
			continue
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestLoadBundleMinimal(t *testing.T) {
	dir := writeBundleDir(t, map[string]string{
		"shared.xatu":    "<model>",
		"udp-flood.xatu": "<model>",
		"notes.xatu":     "ignored: not an attack type",
		"threshold":      "0.25\n",
	})
	b, err := LoadBundle(dir)
	if err != nil {
		t.Fatal(err)
	}
	if b.Default == nil || len(b.Models) != 1 || b.Models[UDPFlood] == nil {
		t.Fatalf("models: default=%v by-type=%v", b.Default != nil, b.Models)
	}
	if b.Threshold != 0.25 {
		t.Fatalf("Threshold = %v, want 0.25", b.Threshold)
	}
	if want := []string{"blocklists.txt", "routes.txt", "history.snap"}; !reflect.DeepEqual(b.Missing, want) {
		t.Fatalf("Missing = %v, want %v", b.Missing, want)
	}
	ext := b.Extractor
	if ext == nil || ext.Blocklists == nil || ext.History == nil || ext.Spoof == nil || ext.Geo == nil {
		t.Fatalf("extractor not fully built: %+v", ext)
	}
}

func TestLoadBundleRegistries(t *testing.T) {
	dir := writeBundleDir(t, map[string]string{
		"tcp-syn.xatu":   "<model>",
		"threshold":      "0.5",
		"blocklists.txt": "bot,11.22.33.0/24,2019-04-01T00:00:00Z,720h\n",
		"routes.txt":     "",
		"history.snap":   "",
	})
	// An empty history file is not a valid snapshot.
	if _, err := LoadBundle(dir); err == nil || !strings.Contains(err.Error(), "history.snap") {
		t.Fatalf("empty history.snap: err = %v", err)
	}
	var snap strings.Builder
	if err := NewHistoryRegistry().Save(&snap); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "history.snap"), []byte(snap.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := LoadBundle(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Missing) != 0 {
		t.Fatalf("Missing = %v, want none", b.Missing)
	}
	if b.Default != nil || b.Models[TCPSYN] == nil {
		t.Fatalf("models: default=%v by-type=%v", b.Default != nil, b.Models)
	}
	n := 0
	for _, c := range b.Extractor.Blocklists.Size() {
		n += c
	}
	if n != 1 {
		t.Fatalf("loaded %d blocklisted /24s, want 1", n)
	}
}

func TestLoadBundleErrors(t *testing.T) {
	cases := map[string]struct {
		files map[string]string
		want  string
	}{
		"no models": {
			map[string]string{"threshold": "0.5"},
			"no models found",
		},
		"missing threshold": {
			map[string]string{"shared.xatu": "<model>"},
			"threshold",
		},
		"empty threshold": {
			map[string]string{"shared.xatu": "<model>", "threshold": "\n"},
			"empty threshold",
		},
		"bad threshold": {
			map[string]string{"shared.xatu": "<model>", "threshold": "high\n"},
			"invalid syntax",
		},
		"corrupt model": {
			map[string]string{"shared.xatu": "not a model", "threshold": "0.5"},
			"shared.xatu",
		},
		"malformed blocklists": {
			map[string]string{"shared.xatu": "<model>", "threshold": "0.5", "blocklists.txt": "bot,11.22.33.0/24\n"},
			"blocklists.txt",
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			b, err := LoadBundle(writeBundleDir(t, tc.files))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("LoadBundle = %v, %v; want error containing %q", b, err, tc.want)
			}
		})
	}
}
