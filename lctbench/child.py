"""One traced ``lctplane`` CLI run, for the traced pass of ``cli-cold``.

    python3 -X importtime lctbench/child.py REQUEST ARG...

``lctplane`` must be importable (``run.py`` sets ``PYTHONPATH``).  Prints one
JSON line: the CLI's exit code, what it printed, and the recorded spans.
"""

import contextlib
import io
import json
import sys

from spans import Tracer

tracer = Tracer()
tracer.install()
tracer.current_request = int(sys.argv[1])

import lctplane.cli  # noqa: E402  (already loaded by install)

out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = lctplane.cli.main(sys.argv[2:])
tracer.uninstall()
print(json.dumps({"rc": rc, "stdout": out.getvalue(), "trace": tracer.export()}))
