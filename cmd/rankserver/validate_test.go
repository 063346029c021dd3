package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestValidateConfig exercises the flag-combination validator: every
// rejected combination must fail with a message naming the offending
// flag, before any dataset is loaded or index built.
func TestValidateConfig(t *testing.T) {
	dir := t.TempDir()
	dataFile := filepath.Join(dir, "data.csv")
	if err := os.WriteFile(dataFile, []byte("0,0,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	tests := []struct {
		name    string
		cfg     config
		set     []string
		wantErr string // substring; empty = must succeed
		// snapDir: once validated, -data names a snapshot directory
		// rather than a dataset file.
		snapDir bool
	}{
		{
			name: "gen only is valid",
			cfg:  config{genSpec: "100x10", shards: 1},
			set:  []string{"gen"},
		},
		{
			name: "existing dataset file is valid",
			cfg:  config{data: dataFile, shards: 1},
			set:  []string{"data"},
		},
		{
			name: "existing dataset file with gen is valid",
			cfg:  config{data: dataFile, genSpec: "100x10", shards: 1},
			set:  []string{"data", "gen"},
		},
		{
			name:    "existing writable snapshot dir is valid",
			cfg:     config{data: dir, shards: 1},
			set:     []string{"data"},
			snapDir: true,
		},
		{
			name: "router alone is valid",
			cfg:  config{router: "h1:7070,h2:7070;h3:7070", shards: 1},
			set:  []string{"router"},
		},
		{
			name:    "zero shards",
			cfg:     config{genSpec: "100x10", shards: 0},
			set:     []string{"gen", "shards"},
			wantErr: "-shards must be >= 1",
		},
		{
			name:    "negative shards",
			cfg:     config{genSpec: "100x10", shards: -3},
			set:     []string{"gen", "shards"},
			wantErr: "-shards must be >= 1",
		},
		{
			name:    "no data source at all",
			cfg:     config{shards: 1},
			wantErr: "one of -data, -gen or -router is required",
		},
		{
			name:    "router conflicts with gen",
			cfg:     config{router: "h1:7070", genSpec: "100x10", shards: 1},
			set:     []string{"router", "gen"},
			wantErr: "-gen configures locally hosted shards",
		},
		{
			name:    "router conflicts with data",
			cfg:     config{router: "h1:7070", data: dataFile, shards: 1},
			set:     []string{"router", "data"},
			wantErr: "-data configures locally hosted shards",
		},
		{
			name:    "router conflicts with shards",
			cfg:     config{router: "h1:7070", shards: 4},
			set:     []string{"router", "shards"},
			wantErr: "-shards configures locally hosted shards",
		},
		{
			name:    "router conflicts with method",
			cfg:     config{router: "h1:7070", method: "APPX2+", shards: 1},
			set:     []string{"router", "method"},
			wantErr: "-method configures locally hosted shards",
		},
		{
			name:    "router with empty group",
			cfg:     config{router: "h1:7070;;h2:7070", shards: 1},
			set:     []string{"router"},
			wantErr: "empty shard group",
		},
		{
			name:    "data under a regular file",
			cfg:     config{data: filepath.Join(dataFile, "snaps"), genSpec: "100x10", shards: 1},
			set:     []string{"data", "gen"},
			wantErr: "-data",
		},
		{
			name:    "missing data without gen",
			cfg:     config{data: filepath.Join(dir, "nope.csv"), shards: 1},
			set:     []string{"data"},
			wantErr: "does not exist",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			set := make(map[string]bool, len(tt.set))
			for _, name := range tt.set {
				set[name] = true
			}
			err := validateConfig(tt.cfg, set)
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("validateConfig() = %v, want nil", err)
				}
				if got := snapshotDir(tt.cfg.data) != ""; got != tt.snapDir {
					t.Fatalf("snapshotDir(%q) reports a snapshot directory: %v, want %v", tt.cfg.data, got, tt.snapDir)
				}
				return
			}
			if err == nil {
				t.Fatalf("validateConfig() = nil, want error containing %q", tt.wantErr)
			}
			if !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("validateConfig() = %q, want it to contain %q", err, tt.wantErr)
			}
			if strings.Contains(err.Error(), "\n") {
				t.Fatalf("error is not one line: %q", err)
			}
		})
	}
	// rankserver has no -hedge flag: the flag parser itself must reject
	// it, so this case runs main in a child process (flag errors exit 2).
	t.Run("hedge is an unknown flag", func(t *testing.T) {
		if os.Getenv("RANKSERVER_RUN_MAIN") == "1" {
			os.Args = []string{"rankserver", "-router", "h1:7070", "-hedge", "1ms"}
			main()
			return
		}
		cmd := exec.Command(os.Args[0], "-test.run=^TestValidateConfig$/^hedge_is_an_unknown_flag$")
		cmd.Env = append(os.Environ(), "RANKSERVER_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Fatalf("rankserver -hedge: err = %v, want exit status 2; output:\n%s", err, out)
		}
		if !strings.Contains(string(out), "flag provided but not defined: -hedge") {
			t.Fatalf("rankserver -hedge output = %q, want an undefined-flag error", out)
		}
	})
}

// TestValidateConfigCreatesSnapshotDir checks the -gen + fresh -data
// path: validation creates the snapshot directory so a later
// checkpoint cannot fail on a missing parent.
func TestValidateConfigCreatesSnapshotDir(t *testing.T) {
	target := filepath.Join(t.TempDir(), "snaps")
	cfg := config{data: target, genSpec: "100x10", shards: 1}
	if err := validateConfig(cfg, map[string]bool{"data": true, "gen": true}); err != nil {
		t.Fatalf("validateConfig() = %v, want nil", err)
	}
	fi, err := os.Stat(target)
	if err != nil || !fi.IsDir() {
		t.Fatalf("snapshot directory not created: %v", err)
	}
	if got := snapshotDir(target); got != target {
		t.Fatalf("snapshotDir(%q) = %q after validation, want the directory", target, got)
	}
}

// TestParseRouterGroups checks the topology spec grammar: semicolons
// split shard groups, commas split replicas, whitespace is tolerated.
func TestParseRouterGroups(t *testing.T) {
	got, err := parseRouterGroups("h1:7070, h2:7070 ;h3:7070")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"h1:7070", "h2:7070"}, {"h3:7070"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseRouterGroups() = %v, want %v", got, want)
	}
	if _, err := parseRouterGroups(",;"); err == nil {
		t.Fatal("parseRouterGroups(\",;\") succeeded, want error")
	}
}
