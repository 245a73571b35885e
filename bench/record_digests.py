"""Record the digests of reports/ and figures/ that the checks compare against.

    PYTHONPATH=src python3 bench/record_digests.py [--seeds N]

Run it on the commit whose outputs are the reference. It writes
``bench/digests.json``: for ``analyze_report`` one digest per seed 0..N-1,
rendered from the generated table by the same calls ``analyze`` makes, and
for ``reproduce_bundled`` the digest of what ``reproduce`` writes. A seed
without a digest is still checked for analyze/report agreement, but not
against the reference.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import WORK_ROOT  # noqa: E402
from workloads import DIGESTS_FILE, digest_tree, setup_analyze_report  # noqa: E402

from bikepls import cli, frames, plsr, reproduce  # noqa: E402
from bikepls.report import ReportBundle, render_all, write_documents  # noqa: E402


def analyze_digest(seed: int, work: Path) -> str:
    case = setup_analyze_report(seed, work)
    config = cli.RunConfig()
    frame_map = frames.frames_from_analysis_table(
        (case.directory / "table.csv").read_text(), config.standardize_y
    )
    bundle = ReportBundle({
        label: (frame, plsr.fit(frame, 3, tol=config.tolerance))
        for label, frame in frame_map.items()
    })
    write_documents(render_all(bundle), work / "out")
    return digest_tree(work / "out", ("reports", "figures"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=100)
    args = parser.parse_args()
    WORK_ROOT.mkdir(exist_ok=True)
    doc: dict = {"analyze_report": {}}
    for seed in range(args.seeds):
        with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
            doc["analyze_report"][str(seed)] = analyze_digest(seed, Path(tmp))
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
        result = reproduce.run_reproduction()
        write_documents(reproduce.render_reproduction_documents(result), tmp)
        doc["reproduce_bundled"] = digest_tree(Path(tmp), ("reports", "figures"))
    DIGESTS_FILE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
