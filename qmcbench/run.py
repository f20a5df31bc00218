#!/usr/bin/env python3
"""End-to-end QMC benchmark.

    python3 qmcbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds qmcbench/bench.exe (and the oqmc
libraries it links) into .bench_build, then runs it as separate processes:
three set-up probes and one measuring process.  Each probe builds the
workload and runs a one-generation job, so set-up time and peak memory
of the process holding the engines are medians of three; the measuring
process runs the timed jobs.  Prints a header, the output checks and the metrics, and as its
last line one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json, with --trace 1 the per-layer ones.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
TMP = os.path.join(BUILD, "qmcbench-tmp")
EXE = os.path.join(BUILD, "default", "qmcbench", "bench.exe")
SETUP_PROBES = 3
BUILD_TIMEOUT = 840
RUN_TIMEOUT = 150

children = set()


def kill_children(*_):
    for pid in list(children):
        try:
            os.killpg(pid, signal.SIGKILL)
        except OSError:
            pass
    sys.exit(1)


def spawn(argv, timeout, stdout):
    """Run argv in its own process group; kill the group on timeout.
    Returns (exit status, peak RSS in KiB of the process and the
    descendants it waited for)."""
    p = subprocess.Popen(argv, cwd=ROOT, stdout=stdout, start_new_session=True)
    children.add(p.pid)
    timer = threading.Timer(timeout, lambda: os.killpg(p.pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
        try:
            os.killpg(p.pid, signal.SIGKILL)  # strays, e.g. orphaned ranks
        except OSError:
            pass
        children.discard(p.pid)
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, usage.ru_maxrss


def build():
    dune = shutil.which("dune")
    if dune is None:
        sys.exit("qmcbench: dune not found on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    argv = [dune, "build", "--root", ROOT, "--build-dir", BUILD,
            "--profile", "release", "./qmcbench/bench.exe"]
    p = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=sys.stderr,
                         start_new_session=True)
    children.add(p.pid)
    try:
        rc = p.wait(timeout=BUILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        rc = 1
    children.discard(p.pid)
    if rc != 0 or not os.path.exists(EXE):
        sys.exit("qmcbench: build failed")


def bench(mode, args, timeout=RUN_TIMEOUT):
    out_path = os.path.join(TMP, "%s-%d.out" % (mode, os.getpid()))
    argv = [EXE, mode, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--tmp", TMP]
    with open(out_path, "w") as out:
        rc, maxrss_kib = spawn(argv, timeout, out)
    with open(out_path) as f:
        lines = f.read().splitlines()
    os.remove(out_path)
    if rc != 0 or not lines:
        sys.exit("qmcbench: bench.exe %s exited with %d" % (mode, rc))
    return json.loads(lines[-1]), maxrss_kib


def read(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return ""


def machine():
    cpu = next((l.split(":", 1)[1].strip() for l in read("/proc/cpuinfo").splitlines()
                if l.startswith("model name")), "unknown")
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = read(os.path.join(base, idx, "level")).strip()
        kind = read(os.path.join(base, idx, "type")).strip()
        if kind != "Instruction":
            caches["L" + level] = read(os.path.join(base, idx, "size")).strip()
    mem = next((l.split()[1] for l in read("/proc/meminfo").splitlines()
                if l.startswith("MemTotal")), "0")
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "l2": caches.get("L2", "?"), "l3": caches.get("L3", "?"),
            "ram_gib": round(int(mem) / 1048576, 1)}


def source_digest():
    """sha256 over the sources the benchmark builds: the tree may not be
    a git checkout, so this stands in for the revision."""
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "bin", "qmcbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            if f.endswith((".ml", ".mli", "dune", "dune-project", ".py")):
                h.update(os.path.relpath(f, ROOT).encode())
                h.update(read(f).encode())
    return h.hexdigest()[:16]


def git_rev():
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def l3_mib(text):
    text = text.upper()
    for suffix, scale in (("K", 1 / 1024), ("M", 1), ("G", 1024)):
        if text.endswith(suffix) and text[:-1].isdigit():
            return int(text[:-1]) * scale
    return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, kill_children)
    signal.signal(signal.SIGINT, kill_children)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    os.makedirs(TMP, exist_ok=True)
    setups = []
    for _ in range(SETUP_PROBES):
        rec, maxrss_kib = bench("setup", args)
        setups.append(dict(rec, peak_rss_mb=maxrss_kib / 1024))
    res, maxrss_kib = bench("measure", args)
    info = dict(res["info"], measure_peak_rss_mib=maxrss_kib / 1024)

    mach = machine()
    table = info["spline_table_mb"]
    l3 = l3_mib(mach["l3"])
    header = {
        "git_rev": git_rev(), "source_sha256": source_digest(),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "jobs": info["jobs"], "setup_runs": len(setups),
        "ocaml": info["ocaml"], "machine": mach,
        "spline_table_mib": round(table, 2),
        "table_over_l3": round(table / l3, 3) if l3 else None,
    }
    print("# header " + json.dumps(header))
    print("# info " + json.dumps(info))
    for c in res["checks"]:
        print("# check %-22s %s  %s" % (c["name"], "ok  " if c["ok"] else "FAIL", c["detail"]))

    metrics = {k: dict(v) for k, v in res["metrics"].items()}
    median = lambda key: statistics.median(s[key] for s in setups)
    metrics["setup_s"] = {"value": median("setup_s"), "unit": "s"}
    metrics["workloads.build_s"] = {"value": median("build_s"), "unit": "s"}
    metrics["qmc.factory_s"] = {"value": median("factory_s"), "unit": "s"}
    metrics["peak_rss_mb"] = {"value": median("peak_rss_mb"), "unit": "MiB"}

    out = {}
    for m in wanted:
        if m["name"] not in metrics:
            sys.exit("qmcbench: metric %s not measured" % m["name"])
        if metrics[m["name"]]["unit"] != m["unit"]:
            sys.exit("qmcbench: metric %s measured in %s, BENCHMARK.json says %s"
                     % (m["name"], metrics[m["name"]]["unit"], m["unit"]))
        out[m["name"]] = metrics[m["name"]]
    # every measured metric, including those BENCHMARK.json does not list
    for name, v in metrics.items():
        print("# metric %-36s %14.6g %s" % (name, v["value"], v["unit"]))
    print(json.dumps({"correct": res["correct"], "attempted": int(res["attempted"]),
                      "failed": int(res["failed"]), "metrics": out}))


if __name__ == "__main__":
    main()
