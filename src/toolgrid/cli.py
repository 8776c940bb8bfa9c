"""The operator surface: one binary, one subcommand per job.

Exit codes are a stable contract:

    0  success
    1  runtime failure (failed or stalled run, unknown run or group)
    2  user or configuration error (bad workflow, bad flags, bad key)
    3  environment error (port in use, peer or relay unreachable)

Everything intended for machine consumption honors --json; human output is
free to change between versions.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
import time
from dataclasses import asdict, replace
from pathlib import Path

import click

from .config import (NodeConfig, Publication, UplinkSettings, load_config,
                     parse_address, resolve_config_dir, save_config)
from .errors import (ComponentConfigError, ConfigError, CryptoError,
                     DataError, DescriptorError, EngineError, NetworkError,
                     PlacementError, ToolgridError, WorkflowParseError)
from .groups import GroupKey, new_group_key, save_group_key
from .node import Node
from .store import RunStore
from .tools import parse_descriptor, scaffold_descriptor
from .uplink import RelayServer, load_token_table
from .workflow import parse_workflow, plan_placement

USER_ERRORS = (WorkflowParseError, DescriptorError, ComponentConfigError,
               ConfigError, CryptoError, PlacementError)
ENVIRONMENT_CODES = {"BIND_FAILED", "CONNECT_FAILED", "UNREACHABLE"}


def _exit_code(exc: ToolgridError) -> int:
    if isinstance(exc, NetworkError):
        return 3 if exc.code in ENVIRONMENT_CODES else 2
    if isinstance(exc, USER_ERRORS):
        return 2
    if isinstance(exc, EngineError) and exc.code == "VALIDATION_FAILED":
        return 2
    return 1


def _fail(exc: ToolgridError) -> None:
    click.echo(str(exc), err=True)
    for diagnostic in getattr(exc, "diagnostics", []):
        if isinstance(diagnostic, dict):
            click.echo(f"  {diagnostic.get('severity')} {diagnostic.get('code')} "
                       f"at {diagnostic.get('location')}: {diagnostic.get('message')}",
                       err=True)
        else:
            click.echo(f"  {diagnostic}", err=True)
    sys.exit(_exit_code(exc))


def _emit(ctx: click.Context, doc: dict, human: str) -> None:
    if ctx.obj["json"]:
        click.echo(json.dumps(doc, indent=2, sort_keys=True))
    else:
        click.echo(human)


def _load(ctx: click.Context) -> NodeConfig:
    return load_config(resolve_config_dir(ctx.obj["config_dir"]))


def _wait_for_interrupt(cleanup) -> None:
    stop = threading.Event()

    def handler(signum, _frame):
        stop.set()

    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[sig] = signal.signal(sig, handler)
        except ValueError:
            pass  # not on the main thread (tests drive commands directly)
    try:
        while not stop.wait(0.5):
            pass
    except KeyboardInterrupt:
        pass
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)
        cleanup()


class _Commands(click.Group):
    """Ends every command, nested groups' too, the one way: a ToolgridError
    prints through ``_fail`` and exits with its code."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except ToolgridError as exc:
            _fail(exc)


@click.group(cls=_Commands)
@click.option("--config-dir", envvar="TOOLGRID_CONFIG_DIR", default=None,
              help="Node state directory (default ~/.toolgrid).")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")
@click.pass_context
def main(ctx: click.Context, config_dir: str | None, as_json: bool) -> None:
    """Distributed tool-chain workflows: serve, run, publish, inspect."""
    ctx.ensure_object(dict)
    ctx.obj["config_dir"] = config_dir
    ctx.obj["json"] = as_json


# -- serve -------------------------------------------------------------------------


@main.command()
@click.pass_context
def serve(ctx: click.Context) -> None:
    """Run this node: listen, connect peers and uplink, host tools."""
    config = _load(ctx)
    node = Node(config)
    node.start()
    where = f"{config.listen} " if config.listen else ""
    _emit(ctx, {"node_id": node.node_id, "listen": config.listen,
                "port": node.listen_port},
          f"node {node.node_id} serving {where}(ctrl-c to stop)")

    config_path = config.config_dir / "config.json"
    last_mtime = config_path.stat().st_mtime if config_path.exists() else 0.0

    def poll_config() -> None:
        nonlocal last_mtime
        while not poll_stop.wait(1.0):
            try:
                mtime = config_path.stat().st_mtime
            except OSError:
                continue
            if mtime == last_mtime:
                continue
            last_mtime = mtime
            try:
                node.reload_tools()
                node.apply_publications(load_config(config.config_dir).published)
            except ToolgridError as exc:
                click.echo(f"config reload skipped: {exc}", err=True)

    poll_stop = threading.Event()
    threading.Thread(target=poll_config, daemon=True, name="config-poll").start()

    def cleanup() -> None:
        poll_stop.set()
        node.stop()

    _wait_for_interrupt(cleanup)


# -- run ----------------------------------------------------------------------------


def _parse_places(places: tuple[str, ...]) -> dict[str, str]:
    overrides = {}
    for spec in places:
        instance, sep, target = spec.partition("=")
        if not sep or not instance or not target:
            raise click.UsageError(f"--place takes instance=node, got {spec!r}")
        overrides[instance] = target
    return overrides


@main.command()
@click.argument("workflow", type=click.Path(exists=True, dir_okay=False,
                                            path_type=Path))
@click.option("--controller", default="local", metavar="ADDR|local",
              help="Where the run lives: this process, or a serving node.")
@click.option("--place", multiple=True, metavar="INSTANCE=NODE",
              help="Pin an instance to a node id (repeatable).")
@click.option("--watch", is_flag=True, help="Stream run events until the end.")
@click.pass_context
def run(ctx: click.Context, workflow: Path, controller: str,
        place: tuple[str, ...], watch: bool) -> None:
    """Submit a workflow; exit 0 only when it COMPLETED."""
    overrides = _parse_places(place)
    text = workflow.read_text()
    as_json = ctx.obj["json"]

    def show_event(event: dict) -> None:
        if as_json:
            click.echo(json.dumps(event, sort_keys=True))
        else:
            extras = {k: v for k, v in event.items()
                      if k not in ("run_id", "at", "event")}
            detail = " ".join(f"{k}={v}" for k, v in sorted(extras.items()))
            click.echo(f"[{event.get('at')}] {event.get('event')} {detail}".rstrip())

    config = _load(ctx)
    if controller == "local":
        node = Node(replace(config, listen=None))
        node.start()
        try:
            _await_remote_offers(node, text, overrides or None)
            engine = node.start_run(text, overrides=overrides or None,
                                    on_event=show_event if watch else None)
            try:
                _emit(ctx, {"run_id": engine.run_id}, f"run {engine.run_id}")
                state = engine.wait()
            except KeyboardInterrupt:  # Ctrl-C ends the run CANCELLED
                engine.cancel()
                state = engine.wait()
            _finish_run(ctx, engine.run_id, state,
                        [d.message for d in engine.stall_diagnostics],
                        engine.failure)
        finally:
            node.stop()
    else:
        host, port = parse_address(controller, "--controller")
        node = Node(replace(config, listen=None, peers=[], uplink=None))
        try:
            session = node.connect((host, port))
            done: dict = {}

            def watcher(event: dict) -> None:
                show_event(event)
                if event.get("event") == "run-finished":
                    done["state"] = event.get("state")

            run_id = node.submit_run(session.peer_node_id, text,
                                     overrides=overrides or None,
                                     watch=watcher if watch else None)
            _emit(ctx, {"run_id": run_id}, f"run {run_id}")
            if watch:
                _finish_run(ctx, run_id, done.get("state", "UNKNOWN"), [], None)
        finally:
            node.stop()


def _await_remote_offers(node: Node, text: str,
                         overrides: dict[str, str] | None = None,
                         timeout: float = 5.0) -> None:
    """Relay offers race a fresh uplink and nothing marks their end; wait
    until every instance can be placed, a pinned one (--place or a placement
    field) on the node it names. LAN peers' offers are in once start returns."""
    if node.uplink is None:
        return
    try:
        graph = parse_workflow(text)
    except ToolgridError:
        return  # the run path reports the parse error itself
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            placed = plan_placement(graph, node.offers(), overrides)
        except PlacementError:
            placed = {}
        if len(placed) == len(graph.components):
            return
        time.sleep(0.05)


def _finish_run(ctx: click.Context, run_id: str, state: str,
                stall_messages: list[str], failure: dict | None) -> None:
    if state == "COMPLETED":
        _emit(ctx, {"run_id": run_id, "state": state}, f"run {run_id} COMPLETED")
        return
    if state == "STALLED":
        click.echo(f"run {run_id} STALLED: data remains but nothing can fire",
                   err=True)
        for message in stall_messages:
            click.echo(f"  {message}", err=True)
    elif state == "FAILED":
        detail = ""
        if failure:
            detail = f": {failure.get('code')}: {failure.get('message')}"
        click.echo(f"run {run_id} FAILED{detail}", err=True)
    else:
        click.echo(f"run {run_id} ended {state}", err=True)
    sys.exit(1)


# -- tool --------------------------------------------------------------------------


@main.group()
def tool() -> None:
    """Integrate, list, and publish tools."""


@tool.command("integrate")
@click.option("--name", required=True)
@click.option("--version", "version_", default="1", show_default=True)
@click.option("--command", "command_", required=True,
              help="Template with ${in:...}/${out:...}/${workdir} placeholders.")
@click.option("--os", "os_key", type=click.Choice(["linux", "windows"]),
              default=None, help="Which OS the command is for (default: this one).")
@click.option("--input", "inputs", multiple=True, metavar="NAME:TYPE[:HANDLING]",
              help="Input endpoint (repeatable).")
@click.option("--output", "outputs", multiple=True, metavar="NAME:TYPE",
              help="Output endpoint (repeatable).")
@click.option("--doc", default=None, help="Documentation text for consumers.")
@click.pass_context
def tool_integrate(ctx: click.Context, name: str, version_: str, command_: str,
                   os_key: str | None, inputs: tuple[str, ...],
                   outputs: tuple[str, ...], doc: str | None) -> None:
    """Wrap an installed executable as a workflow component."""
    text = scaffold_descriptor(name, version_, command_, list(inputs),
                               list(outputs), os_key=os_key,
                               documentation=doc)
    node = Node(_load(ctx))
    path = node.install_descriptor(parse_descriptor(text))
    _emit(ctx, {"descriptor": str(path), "component": f"{name}@{version_}"},
          f"integrated {name}@{version_} -> {path}")


@tool.command("list")
@click.option("--remote", is_flag=True, help="Ask connected peers too.")
@click.pass_context
def tool_list(ctx: click.Context, remote: bool) -> None:
    """Show installed (and optionally remotely offered) components."""
    node = Node(replace(_load(ctx), listen=None))
    published = dict(node.published_components())
    rows = [{"component": component, "where": "local",
             "published": published.get(component)}
            for component in sorted(_local_components(node))]
    if remote:
        node.start()
        if node.uplink is not None:
            time.sleep(0.5)  # one relay announcement round
        for offer in node.remote_components():
            rows.append({"component": str(offer.ref),
                         "where": offer.publisher,
                         "group": offer.group})
        node.stop()
    if ctx.obj["json"]:
        click.echo(json.dumps({"components": rows}, indent=2, sort_keys=True))
    else:
        for row in rows:
            mark = f" [published: {row['published']}]" if row.get("published") else ""
            group = f" group={row['group']}" if row.get("group") else ""
            click.echo(f"{row['component']}  ({row['where']}){group}{mark}")


def _local_components(node: Node) -> list[str]:
    with node._lock:
        return list(node._descriptors)


@tool.command("publish")
@click.argument("component")
@click.option("--group", "group_", default="PUBLIC", show_default=True,
              help="Group name, or PUBLIC for everyone.")
@click.pass_context
def tool_publish(ctx: click.Context, component: str, group_: str) -> None:
    """Offer an installed tool to peers; a serving node picks this up."""
    config = _load(ctx)
    node = Node(config)
    node.publish(component, group_)  # validates both names
    published = [p for p in config.published if p.component != component]
    published.append(Publication(component, group_))
    save_config(replace(config, published=published))
    _emit(ctx, {"component": component, "group": group_},
          f"published {component} to {group_}")


@tool.command("unpublish")
@click.argument("component")
@click.pass_context
def tool_unpublish(ctx: click.Context, component: str) -> None:
    config = _load(ctx)
    remaining = [p for p in config.published if p.component != component]
    if len(remaining) == len(config.published):
        raise ConfigError("UNKNOWN_TOOL", f"{component!r} is not published",
                          key="published")
    save_config(replace(config, published=remaining))
    _emit(ctx, {"component": component}, f"unpublished {component}")


# -- group -------------------------------------------------------------------------


@main.group()
def group() -> None:
    """Create and exchange authorization group keys."""


@group.command("create")
@click.argument("name")
@click.pass_context
def group_create(ctx: click.Context, name: str) -> None:
    key = new_group_key(name)
    save_group_key(key, _load(ctx).groups_dir)
    _emit(ctx, {"group": key.display()}, key.display())


@group.command("export-key")
@click.argument("name")
@click.pass_context
def group_export(ctx: click.Context, name: str) -> None:
    node = Node(_load(ctx))
    key = node.group_by_name(name)
    if key is None:
        raise DataError("UNKNOWN_GROUP", f"no group named {name!r}")
    _emit(ctx, {"group": key.display(), "secret": key.secret.hex()},
          key.secret.hex())


@group.command("import-key")
@click.argument("name")
@click.option("--secret", "secret_hex", default=None,
              help="64 hex chars; read from stdin when omitted.")
@click.pass_context
def group_import(ctx: click.Context, name: str, secret_hex: str | None) -> None:
    if secret_hex is None:
        secret_hex = sys.stdin.readline().strip()
    try:
        secret = bytes.fromhex(secret_hex)
    except ValueError:
        raise CryptoError("BAD_KEY_FILE", "secret is not valid hex") from None
    key = GroupKey(name, secret)
    save_group_key(key, _load(ctx).groups_dir)
    _emit(ctx, {"group": key.display()}, f"imported {key.display()}")


@group.command("list")
@click.pass_context
def group_list(ctx: click.Context) -> None:
    node = Node(_load(ctx))
    rows = sorted(key.display() for key in node.group_keys.values())
    if ctx.obj["json"]:
        click.echo(json.dumps({"groups": rows}, indent=2))
    else:
        for row in rows:
            click.echo(row)


# -- data --------------------------------------------------------------------------


@main.group()
def data() -> None:
    """Inspect recorded runs in the local store."""


def _open_store(ctx: click.Context) -> RunStore:
    return RunStore(_load(ctx).store_dir)


@data.command("runs")
@click.pass_context
def data_runs(ctx: click.Context) -> None:
    runs = _open_store(ctx).list_runs()
    if ctx.obj["json"]:
        click.echo(json.dumps({"runs": runs}, indent=2, sort_keys=True))
    else:
        for meta in runs:
            click.echo(f"{meta['run_id']}  {meta['state']:<9}  "
                       f"{meta.get('workflow_name', '')}")


@data.command("show")
@click.argument("run_id")
@click.pass_context
def data_show(ctx: click.Context, run_id: str) -> None:
    store = _open_store(ctx)
    meta = store.run_meta(run_id)
    records = store.query_run(run_id)
    if ctx.obj["json"]:
        click.echo(json.dumps({"meta": meta,
                               "records": [r.to_json() for r in records]},
                              indent=2, sort_keys=True))
        return
    click.echo(f"run {meta['run_id']}  state={meta['state']}  "
               f"workflow={meta.get('workflow_name', '')}")
    for record in records:
        took = record.finished_at - record.started_at
        click.echo(f"  {record.instance_id}#{record.execution_index}  "
                   f"{record.status}  node={record.node[:12]}  "
                   f"start={record.started_at}  took={took}ms")


@data.command("export")
@click.argument("run_id")
@click.argument("dest", type=click.Path(path_type=Path))
@click.pass_context
def data_export(ctx: click.Context, run_id: str, dest: Path) -> None:
    manifest = _open_store(ctx).export_run(run_id, dest)
    _emit(ctx, manifest,
          f"exported {run_id} -> {dest} ({len(manifest['files'])} files)")


# -- uplink -------------------------------------------------------------------------


@main.group()
def uplink() -> None:
    """Relay server and cross-organization client sessions."""


@uplink.command("serve")
@click.option("--listen", "listen_", required=True, metavar="HOST:PORT")
@click.option("--tokens", "tokens_path", required=True,
              type=click.Path(exists=True, dir_okay=False, path_type=Path),
              help="client_id:token lines.")
@click.pass_context
def uplink_serve(ctx: click.Context, listen_: str, tokens_path: Path) -> None:
    """Run a relay that forwards only the allowlisted operations."""
    host, port = parse_address(listen_, "--listen")
    relay = RelayServer(load_token_table(tokens_path))
    relay.start(host, port)
    _emit(ctx, {"listen": listen_, "port": relay.listen_port},
          f"relay on {host}:{relay.listen_port} (ctrl-c to stop)")
    _wait_for_interrupt(relay.stop)


@uplink.command("connect")
@click.option("--relay", "relay_", required=True, metavar="HOST:PORT")
@click.option("--id", "client_id", required=True)
@click.option("--token", required=True)
@click.pass_context
def uplink_connect(ctx: click.Context, relay_: str, client_id: str,
                   token: str) -> None:
    """Keep this node attached to a relay, announcing its published tools."""
    parse_address(relay_, "--relay")
    node = Node(replace(_load(ctx), listen=None, peers=[],
                        uplink=UplinkSettings(relay_, client_id, token)))
    node.start()
    if not node.uplink.connected():
        raise NetworkError("CONNECT_FAILED",
                           node.uplink.last_error or "relay unreachable")
    _emit(ctx, {"client_id": client_id, "relay": relay_},
          f"uplink {client_id} connected to {relay_} (ctrl-c to stop)")
    _wait_for_interrupt(node.stop)


# -- workflow helpers ----------------------------------------------------------------


@main.command()
@click.argument("workflow", type=click.Path(exists=True, dir_okay=False,
                                            path_type=Path))
@click.pass_context
def check(ctx: click.Context, workflow: Path) -> None:
    """Parse, place and validate a workflow without running it."""
    node = Node(_load(ctx))
    _, diagnostics = node.plan(parse_workflow(workflow.read_text()))
    errors = [d for d in diagnostics if d.severity == "error"]
    if ctx.obj["json"]:
        click.echo(json.dumps({"diagnostics": [asdict(d) for d in diagnostics]},
                              indent=2))
    else:
        for d in diagnostics:
            click.echo(str(d))
        if not diagnostics:
            click.echo("ok")
    if errors:
        sys.exit(2)


if __name__ == "__main__":
    main()
