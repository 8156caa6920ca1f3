"""Cluster job entrypoint for the extraction pipeline.

The north rule delivers extraction as a ``ray job submit`` run on a
fixed-size multi-node cluster, resumable from per-partition lineage:

    ray job submit --working-dir . -- \
        python -m iesl_pdf_to_text_ray.jobs.extract_job \
            --input  /data/corpus_shards \
            --output /data/spans_out \
            --split-pages

The job body is ``extract_to_dir`` (pipelines/extract_pipeline.py):
one actor task per pending corpus shard that parses it and writes its
parquet atomically with a `_lineage/partition=*.json` record.  With
``--split-pages`` the page-split chain (split_tasks -> ExtractShards)
runs instead, and its one shuffle, groupby(partition_id), both
reassembles each partition's documents and writes the partition.
Re-submitting after a kill skips completed partitions
(tests/test_kill_resume.py).

ray.init is guarded: under ``ray job submit`` the cluster address comes
from the environment; standalone runs fall back to a local session.
Prints ONE JSON summary line on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="iesl_pdf_to_text_ray.jobs.extract_job")
    ap.add_argument("--input", required=True,
                    help="corpus shard directory (parquet of "
                         "doc_id/pdf_bytes rows)")
    ap.add_argument("--output", required=True,
                    help="output directory (parquet + _lineage)")
    ap.add_argument("--split-pages", action="store_true",
                    help="route oversized documents through the "
                         "page-level skew split")
    ap.add_argument("--batch-size", type=int, default=8)
    ap.add_argument("--min-actors", type=int, default=1)
    ap.add_argument("--max-actors", type=int, default=0,
                    help="0 = size to the cluster (CPUs - 2)")
    args = ap.parse_args(argv)

    import ray
    if not ray.is_initialized():
        # `ray job submit` provides RAY_ADDRESS; standalone runs local
        ray.init(include_dashboard=False)

    max_actors = args.max_actors
    if max_actors <= 0:
        max_actors = max(2, int(ray.cluster_resources()
                                .get("CPU", 4)) - 2)

    from ..pipelines.extract_pipeline import extract_to_dir
    t0 = time.time()
    stats = extract_to_dir(
        args.input, args.output,
        concurrency=(args.min_actors, max_actors),
        batch_size=args.batch_size, split_pages=args.split_pages)
    stats["sec"] = round(time.time() - t0, 3)
    stats["docs_per_sec"] = (round(stats["n_docs"] / stats["sec"], 2)
                             if stats.get("n_docs") else 0.0)
    print(json.dumps(stats))
    return 0


if __name__ == "__main__":
    sys.exit(main())
