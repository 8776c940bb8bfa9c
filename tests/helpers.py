"""Builders shared across the test modules.

All fixture tools are small Python scripts invoked as
``python3 <script> <workdir>`` so they run identically on any host with a
python3 on PATH. Each reads inputs.json and writes outputs.json per the
working-directory contract.
"""

import json
import re
import socket
import threading
import time
from pathlib import Path

from toolgrid.errors import NetworkError
from toolgrid.node import HANDSHAKE_TIMEOUT

PRELUDE = (
    "import json, sys\n"
    "from pathlib import Path\n"
    "wd = Path(sys.argv[1])\n"
    "doc = json.loads((wd / 'inputs.json').read_text())\n"
)

# body snippets for common fixture tools
ADD_BODY = "(wd / 'outputs.json').write_text(json.dumps({'total': doc['a'] + doc['b']}))\n"
IDENTITY_BODY = "(wd / 'outputs.json').write_text(json.dumps({'out': doc['x']}))\n"
SQUARE_GAP_BODY = (
    "(wd / 'outputs.json').write_text(json.dumps({'y': (doc['x'] - 3.0) ** 2}))\n"
)
BABYLONIAN_BODY = (
    "x = doc['x']\n"
    "(wd / 'outputs.json').write_text(json.dumps({'y': (x + 2.0 / x) / 2.0}))\n"
)
DOUBLE_BODY = "(wd / 'outputs.json').write_text(json.dumps({'out': doc['x'] * 2}))\n"


def write_tool(path: Path, body: str) -> Path:
    path.write_text(PRELUDE + body)
    return path


def script_config(script: Path, inputs: dict, outputs: dict, **extra) -> dict:
    config = {
        "command": f"python3 {script} ${{workdir}}",
        "inputs": inputs,
        "outputs": outputs,
    }
    config.update(extra)
    return config


def workflow(name: str, components: list, connections: list,
             labels: dict | None = None) -> str:
    doc = {"name": name, "components": components, "connections": connections}
    if labels is not None:
        doc["labels"] = labels
    return json.dumps(doc)


def instance(instance_id: str, component: str, config: dict | None = None,
             placement: str | None = None) -> dict:
    doc = {"id": instance_id, "component": component, "config": config or {}}
    if placement is not None:
        doc["placement"] = placement
    return doc


def edge(src: str, dst: str) -> dict:
    return {"from": src, "to": dst}


def wait_until(predicate, timeout=5.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def link_nodes(a, b):
    """Join two in-process nodes over a socketpair; returns both sessions."""
    sock_a, sock_b = socket.socketpair()
    result: dict = {}

    def adopt_b():
        result["b"] = b.attach(sock_b)

    thread = threading.Thread(target=adopt_b, daemon=True)
    thread.start()
    session_a = a.attach(sock_a)
    thread.join(HANDSHAKE_TIMEOUT)
    if "b" not in result:
        raise NetworkError("BAD_HANDSHAKE", "socketpair handshake did not finish")
    return session_a, result["b"]


def values_log(target: Path) -> list[dict]:
    return [json.loads(line)
            for line in (target / "values.log").read_text().splitlines() if line]


def logged(target: Path, endpoint: str) -> list:
    """Values received on one writer endpoint, in arrival order."""
    return [entry["value"] for entry in values_log(target)
            if entry["endpoint"] == endpoint]


def grid_loop(name: str, evals: int) -> str:
    """An all-built-in optimizer/switch loop that fires 2 * ``evals`` + 1 times."""
    return workflow(
        name,
        [instance("opt", "optimizer@1",
                  {"strategy": "grid",
                   "variables": [{"name": "x", "lower": 0.0,
                                  "upper": float(evals - 1), "initial_step": 1.0}],
                   "tol": 1e-3, "max_evals": evals}),
         instance("gate", "switch@1", {"condition": ">= -1.0"})],
        [edge("opt.x", "gate.value"), edge("gate.true", "opt.objective")])


_STAMP_RE = re.compile(r'"(at|started_at|finished_at)": (\d+)')


def normalise_records(text: str, labels: dict) -> str:
    """A run's records.log with what differs between two runs of it replaced:
    each stamp (``at``, ``started_at``, ``finished_at``) by its rank among the
    run's stamps and each node id in ``labels`` by its label. Everything
    else, key order and blob digests included, is kept byte for byte."""
    stamps = sorted({int(match[2]) for match in _STAMP_RE.finditer(text)})
    rank = {stamp: n for n, stamp in enumerate(stamps)}
    text = _STAMP_RE.sub(lambda match: f'"{match[1]}": {rank[int(match[2])]}', text)
    for node_id, label in labels.items():
        text = text.replace(node_id, label)
    return text
