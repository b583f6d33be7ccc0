package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
)

// environment names the hardware and software a result was measured on.
type environment struct {
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Transport  string `json:"transport"`
}

func readEnvironment() environment {
	env := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Transport:  "loopback TCP",
		CPUModel:   "unknown",
		Kernel:     "unknown",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}
