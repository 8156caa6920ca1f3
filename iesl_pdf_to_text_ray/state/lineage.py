"""Per-partition lineage records + resumable output layout.

Output layout (north rule: "resumable from checkpoint with per-partition
lineage + metrics"):

    out_dir/
      part-<pid>.parquet            # spans for one input shard
      _lineage/partition=<pid>.json # written AFTER the data file, atomically

A partition id is deterministic: the input shard's file stem.  A partition
counts as completed only if BOTH its data file and its lineage record exist;
writes go to a temp name + os.replace so a killed run never leaves a
record without data.  On restart the driver lists completed partitions and
filters the input file list (an anti-join on partition id) before parsing.
"""

from __future__ import annotations

import json
import os
import time


def partition_id_for(input_file: str) -> str:
    return os.path.splitext(os.path.basename(input_file))[0]


def data_path(out_dir: str, pid: str) -> str:
    return os.path.join(out_dir, f"part-{pid}.parquet")


def lineage_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_lineage")


def lineage_path(out_dir: str, pid: str) -> str:
    return os.path.join(lineage_dir(out_dir), f"partition={pid}.json")


def completed_partitions(out_dir: str) -> set[str]:
    ldir = lineage_dir(out_dir)
    done: set[str] = set()
    if not os.path.isdir(ldir):
        return done
    for name in os.listdir(ldir):
        if not (name.startswith("partition=") and name.endswith(".json")):
            continue
        pid = name[len("partition="):-len(".json")]
        if os.path.exists(data_path(out_dir, pid)):
            done.add(pid)
    return done


def write_partition(out_dir: str, pid: str, table, record: dict) -> None:
    """Atomically write one partition's parquet + lineage record."""
    import pyarrow.parquet as pq
    os.makedirs(lineage_dir(out_dir), exist_ok=True)
    dpath = data_path(out_dir, pid)
    tmp = dpath + f".tmp.{os.getpid()}"
    pq.write_table(table, tmp)
    os.replace(tmp, dpath)
    record = dict(record, partition=pid, completed_at=time.time())
    lpath = lineage_path(out_dir, pid)
    ltmp = lpath + f".tmp.{os.getpid()}"
    with open(ltmp, "w") as f:
        json.dump(record, f)
    os.replace(ltmp, lpath)


def remove_stray_temps(out_dir: str) -> list[str]:
    """Delete the ``*.tmp.<pid>`` files a killed writer left in the data
    and lineage dirs; returns their names.  Only for when no writer runs
    on ``out_dir`` (a resumed run calls it before it starts writing)."""
    removed = []
    for d in (out_dir, lineage_dir(out_dir)):
        if not os.path.isdir(d):
            continue
        for name in os.listdir(d):
            if ".tmp." in name:
                os.remove(os.path.join(d, name))
                removed.append(name)
    return removed
