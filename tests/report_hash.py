"""Report-byte guard: the sha256 of the default reports of 336 checks.

Runs ``whitney check <doc> --mode M --order r --json`` in-process for the
first 84 germs of the seed-7 ``verdicts`` benchmark inputs
(``perfbench/germs.py``, read only) in each of the modes contact, legendre,
a2r and classify, feeds ``repr((stdout, stderr, exit_code))`` of every call
to one sha256, and compares the digest with the pinned one.  A change to
any report byte, or to any exit code, changes the digest.

Usage: ``python tests/report_hash.py``; exits 0 on a match, 1 otherwise.
pytest does not collect this file.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
sys.dont_write_bytecode = True          # leave perfbench/ as checked out

import germs  # noqa: E402
from whitney import cli  # noqa: E402

PINNED = "5a8a83ed9e6b72e3e60c979cf4a7a4735b9484541a96e19a2bca8752ce052510"
OPS = 84
MODES = ("contact", "legendre", "a2r", "classify")


def report_digest(workdir: str) -> str:
    gen = germs.Generator("verdicts", 7, workdir)
    digest = hashlib.sha256()
    for index in range(OPS):
        op = gen.make(index)
        for mode in MODES:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["check", op.doc, "--mode", mode,
                                 "--order", str(op.order), "--json"])
            digest.update(repr((out.getvalue(), err.getvalue(), code)).encode())
    return digest.hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        got = report_digest(workdir)
    print(f"report sha256 {got}")
    if got != PINNED:
        print(f"mismatch: pinned {PINNED}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
