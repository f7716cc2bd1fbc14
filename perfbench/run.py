#!/usr/bin/env python3
"""depstor benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the library and the benchmark binary from source (CMake, Release)
into $CARGO_TARGET_DIR or .bench_build under the current directory, runs
one workload, and prints the binary's report. The last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"}
holding exactly the metrics BENCHMARK.json lists: its end_to_end metrics
with --trace 0, its per_layer metrics with --trace 1.

`--seed dev` and `--seed heldout` name the seeds fixed in
perfbench/seeds.json. `--self-test` builds and runs the tests of the
benchmark's own logic instead of a workload.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("depstor sources not found next to perfbench/ (src/CMakeLists.txt)")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(build_dir, "perfbench")
    generator = ["-G", "Ninja"] if subprocess.run(
        ["ninja", "--version"], capture_output=True).returncode == 0 else []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                       "--target", target], stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, target)


def main(argv):
    if "--self-test" in argv:
        sys.exit(subprocess.run([build("perfbench_selftest")]).returncode)
    args = list(argv)
    try:
        i = args.index("--seed")
        if args[i + 1] in ("dev", "heldout"):
            with open(os.path.join(HERE, "seeds.json")) as f:
                args[i + 1] = str(json.load(f)[args[i + 1]])
    except (ValueError, IndexError):
        pass
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    trace = dict(zip(args[::2], args[1::2])).get("--trace") == "1"
    wanted = spec["per_layer" if trace else "end_to_end"]

    binary = build("perfbench")
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail("benchmark binary failed (exit %d)" % proc.returncode)
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    metrics = {}
    for m in wanted:
        if m["name"] not in result["metrics"]:
            fail("metric %s was not measured" % m["name"])
        metrics[m["name"]] = result["metrics"][m["name"]]
    result["metrics"] = metrics
    print(json.dumps(result), flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main(sys.argv[1:])
