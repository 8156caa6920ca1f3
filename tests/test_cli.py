"""CLI surface tests (reference cli.js parity: -i/-o/-p/-f)."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from iesl_pdf_to_text_ray.sources.corpus import base_documents

REPO = Path(__file__).resolve().parents[1]
# a 4-page generated base document; its span counts are predicted
DOC = base_documents()[0]
N_TEXT = DOC.n_text


@pytest.fixture(scope="module")
def pdf_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / f"{DOC.name}.pdf"
    path.write_bytes(DOC.pdf_bytes)
    return str(path)


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "iesl_pdf_to_text_ray",
                           *args], capture_output=True, text=True,
                          cwd=REPO)


def test_jsonl_output(tmp_path, pdf_path):
    out = tmp_path / "o.jsonl"
    r = run_cli("-i", pdf_path, "-o", str(out))
    assert r.returncode == 0, r.stderr
    rec = json.loads(out.read_text())
    assert rec["doc_id"] == DOC.name
    texts = [s for s in rec["spans"] if s["kind"] == "text"]
    assert len(texts) == N_TEXT


def test_per_page(tmp_path, pdf_path):
    out = tmp_path / "p.jsonl"
    r = run_cli("-i", pdf_path, "-o", str(out), "-p")
    assert r.returncode == 0, r.stderr
    pages = [json.loads(l) for l in out.read_text().splitlines()]
    assert [p["page"] for p in pages] == [0, 1, 2, 3]
    total_text = sum(1 for p in pages for s in p["spans"]
                     if s["kind"] == "text")
    assert total_text == N_TEXT


def test_text_format(pdf_path):
    # a figure caption: drawn by one Tj, so it appears verbatim
    caption = next(t for k, t, _, _ in DOC.spans
                   if k == "text" and t.startswith("Figure "))
    r = run_cli("-i", pdf_path, "-f", "text")
    assert r.returncode == 0
    assert caption in r.stdout


def test_missing_input_is_clean():
    r = run_cli("-i", "/nonexistent.pdf")
    assert r.returncode == 2
    assert "not found" in r.stderr


def test_cli_ray_parquet_sink(tmp_path):
    import subprocess
    import sys

    import pyarrow.parquet as pq

    src = tmp_path / "pdfs"
    src.mkdir()
    (src / "one.pdf").write_bytes(DOC.pdf_bytes)
    out = tmp_path / "out"
    r = subprocess.run(
        [sys.executable, "-m", "iesl_pdf_to_text_ray", "-i", str(src),
         "-o", str(out), "-f", "parquet", "--ray"],
        capture_output=True, cwd=REPO)
    assert r.returncode == 0, r.stderr.decode()[-800:]
    t = pq.read_table(str(out))
    assert t.num_rows == 1
    row = t.to_pylist()[0]
    assert row["doc_id"] == "one" and row["error"] == ""
    assert sum(1 for s in row["spans"] if s["kind"] == "text") == N_TEXT


def test_bench_counts_failed_queries(monkeypatch, capsys):
    """A query that raised is named in bench.py's JSON line, left out of
    its total, and makes the command exit 1."""
    import ray

    import bench
    leg = {"n_docs": 1, "sec": 1.0, "docs_per_sec": 1.0}
    monkeypatch.setattr(ray, "init", lambda **kw: None)
    monkeypatch.setattr(ray, "shutdown", lambda: None)
    monkeypatch.setattr(bench, "run_extract", lambda cpus, n_docs: leg)
    monkeypatch.setattr(bench, "run_html_extract", lambda cpus, n_docs: leg)
    monkeypatch.setattr(bench, "run_queries", lambda sf: {
        "ok": 0.5, "broken": "error: boom"})
    monkeypatch.setattr(sys, "argv", ["bench.py"])
    assert bench.main() == 1
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["failed_queries"] == ["broken"] and out["n_failed"] == 1
    assert out["value"] == 2.5
