"""Benchmark driver.

Default: runs the headline extraction pipeline (PDF corpus -> spans) and
the table-operator queries over $GRAFT_SF_DIR (default /root/testdata/sf0.1)
under ray.init(address="local", num_cpus=$RAY_GRAFT_CPUS or 32) and prints
ONE JSON line:

  {"metric": "...", "value": <total sec>, "unit": "sec",
   "queries": {...}, "sf": ..., "num_cpus": N, "docs_per_sec": ...}

--scaling: runs the same extraction job twice in fresh processes at
num_cpus=8 and num_cpus=32 on the same input and reports throughput at
both plus scaling efficiency (sandbox stand-in for the N vs 4N node
criterion in BASELINE.json).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
SCALING_DOCS = int(os.environ.get("GRAFT_SCALING_DOCS", "4096"))
SCALE_N = int(os.environ.get("GRAFT_SCALE_N", "4"))


def host_speed_probe() -> dict:
    """Single-thread spin rate + 1-minute load average: a normalization
    anchor for cross-round comparisons — this sandbox's host differs in
    per-core speed between rounds and carries fluctuating co-tenant load
    (observed 1.5-4x swings on identical code).  Units are arbitrary but
    stable across rounds (iterations of a fixed Python loop in 0.5 s)."""
    t0 = time.time()
    x = 0
    while time.time() - t0 < 0.5:
        x += 1
    try:
        load1 = os.getloadavg()[0]
    except OSError:
        load1 = -1.0
    return {"spin_iters_500ms": x, "loadavg_1m": round(load1, 2)}


def _corpus(n_docs: int) -> str:
    from __ray_entry__ import _corpus_dir
    return _corpus_dir(n_docs, max(8, n_docs // 16))


def run_extract(num_cpus: int, n_docs: int) -> dict:
    import ray
    from iesl_pdf_to_text_ray.pipelines.extract_pipeline import extract_dataset
    corpus = _corpus(n_docs)
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus,
                 include_dashboard=False)
    # warm with the same pool topology so worker/actor startup is not
    # billed to the measured run (real deployments run long-lived jobs)
    conc = (max(1, num_cpus - 2), num_cpus)
    extract_dataset(_corpus(min(256, n_docs)), concurrency=conc,
                    batch_size=4).count()
    t0 = time.time()
    # leave >=2 CPUs for the read stage: a fixed pool of num_cpus actors
    # deadlocks on a fully-subscribed node
    ds = extract_dataset(corpus, concurrency=conc, batch_size=4)
    n = ds.count()
    dt = time.time() - t0
    assert n == n_docs, (n, n_docs)
    return {"n_docs": n_docs, "sec": round(dt, 3),
            "docs_per_sec": round(n_docs / dt, 2)}


def run_html_extract(num_cpus: int, n_docs: int) -> dict:
    """Throughput of the north-rule HTML main-content leg: synthetic web
    corpus -> actor-pool boilerplate strip -> interleaved spans."""
    from iesl_pdf_to_text_ray.sources.html_corpus import \
        synthesize_html_corpus
    from iesl_pdf_to_text_ray.stages.html_extract import \
        extract_html_dataset
    d = f"/tmp/graft_bench_corpus/html_n{n_docs}"
    if not os.path.exists(os.path.join(d, "part-00000.parquet")):
        synthesize_html_corpus(d, n_docs=n_docs,
                               n_shards=max(8, n_docs // 64))
    conc = (max(1, num_cpus - 2), num_cpus)
    # warm the actor pool topology, then measure
    extract_html_dataset(d, concurrency=conc, batch_size=16).count()
    t0 = time.time()
    n = extract_html_dataset(d, concurrency=conc, batch_size=16).count()
    dt = time.time() - t0
    assert n == n_docs, (n, n_docs)
    return {"n_docs": n, "sec": round(dt, 3),
            "docs_per_sec": round(n / dt, 2)}


def run_queries(sf_dir: str) -> dict:
    import __ray_entry__ as E
    out = {}
    qs = E.queries()
    for name, fn in qs.items():
        t0 = time.time()
        try:
            res = fn(sf_dir)
            import ray.data
            if isinstance(res, ray.data.Dataset):
                res.count()   # materialize the stream
            out[name] = round(time.time() - t0, 3)
        except Exception as e:
            out[name] = f"error: {e}"
    return out


def main():
    if "--scaling" in sys.argv:
        # N vs 4N cpus in fresh processes on the same input (the sandbox
        # stand-in for N vs 4N nodes; see BASELINE.md for why N defaults to
        # a per-node-realistic width)
        n_lo, n_hi = SCALE_N, 4 * SCALE_N
        results = {}
        for cpus in (n_lo, n_hi):
            env = dict(os.environ, RAY_GRAFT_CPUS=str(cpus))
            proc = subprocess.run(
                [sys.executable, __file__, "--_extract-only"],
                env=env, capture_output=True, text=True,
                cwd=os.path.dirname(os.path.abspath(__file__)))
            line = proc.stdout.strip().splitlines()[-1]
            results[cpus] = json.loads(line)
        r_lo, r_hi = results[n_lo], results[n_hi]
        eff = (r_hi["docs_per_sec"] / r_lo["docs_per_sec"]) / 4.0
        print(json.dumps({
            "metric": f"extraction scaling efficiency N={n_lo} -> 4N={n_hi} cpus",
            "value": round(eff, 3), "unit": "efficiency",
            "n_docs": SCALING_DOCS,
            f"throughput_{n_lo}cpu": r_lo["docs_per_sec"],
            f"throughput_{n_hi}cpu": r_hi["docs_per_sec"],
            f"sec_{n_lo}cpu": r_lo["sec"], f"sec_{n_hi}cpu": r_hi["sec"],
            "host_probe": host_speed_probe()}))
        return

    if "--_extract-only" in sys.argv:
        res = run_extract(NUM_CPUS, SCALING_DOCS)
        import ray
        ray.shutdown()
        print(json.dumps(res))
        return

    import ray
    probe = host_speed_probe()
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False)
    extract = run_extract(NUM_CPUS, n_docs=32 * NUM_CPUS)
    html = run_html_extract(NUM_CPUS, n_docs=64 * NUM_CPUS)
    queries = run_queries(SF_DIR)
    # headline total covers BOTH extraction legs (PDF + HTML) plus the
    # query suite — BASELINE.md describes it that way (ADVICE r4)
    total = extract["sec"] + html["sec"] + \
        sum(v for v in queries.values() if isinstance(v, (int, float)))
    print(json.dumps({
        "metric": "documents/sec end-to-end extraction + operator suite",
        "value": round(total, 3), "unit": "sec",
        "queries": queries, "sf": SF_DIR, "num_cpus": NUM_CPUS,
        "extract_n_docs": extract["n_docs"],
        "extract_sec": extract["sec"],
        "docs_per_sec": extract["docs_per_sec"],
        "html_n_docs": html["n_docs"],
        "html_sec": html["sec"],
        "html_docs_per_sec": html["docs_per_sec"],
        "host_probe": probe}))
    ray.shutdown()


if __name__ == "__main__":
    main()
