"""Seeded input generators for every workload.

Everything the program sees is built here from ``random.Random(seed)``
and nothing else: the same seed gives byte-identical docs and arrival
schedules (``fingerprint`` hashes them so a run can record it).

* ``api_sessions`` — sessions replaying a seeded mix of the eight
  multimedia-communication scenarios of the paper's Sec. VII-A as
  ``api`` / ``fail`` / ``recover`` docs, with connection, medium and
  party ids made unique per session so many sessions can share one
  shard platform and its service.
* ``edit_sessions`` — per shipped domain, a serialized base application
  model of about 32 entities followed by id-preserving edits (add,
  remove or change one entity), each a full ``run_model`` doc.
* ``poisson_arrivals`` — an open-loop arrival schedule.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import random
from typing import Any, Iterator

DOMAINS = ("communication", "microgrid", "smartspace", "crowdsensing")


# -- the eight Sec. VII-A scenarios -----------------------------------------
#
# The same steps as ``repro.bench.workloads.COMMUNICATION_SCENARIOS``,
# kept here on purpose: the benchmark's inputs must stay fixed when the
# program's own tables change, or a later commit would be measured on
# other inputs than its parent.


def _api(name: str, **args: Any) -> tuple:
    return ("api", f"ncb.{name}", args)


def _setup(conn: str, parties: int) -> list[tuple]:
    return [_api("open_session", connection=conn)] + [
        _api("add_party", connection=conn, party=f"{conn}-p{i}")
        for i in range(parties)
    ]


def _stream(conn: str, medium: str, kind: str, quality: str) -> tuple:
    return _api("open_stream", connection=conn, medium=medium, kind=kind,
                quality=quality)


SCENARIOS: dict[str, list[tuple]] = {
    "basic-session": [
        *_setup("c1", 2), _stream("c1", "m1", "audio", "standard"),
        _api("close_stream", connection="c1", medium="m1"),
        _api("close_session", connection="c1"),
    ],
    "conference-setup": [
        *_setup("c1", 5), _stream("c1", "m1", "audio", "standard"),
        _stream("c1", "m2", "video", "high"),
        _api("close_session", connection="c1"),
    ],
    "party-churn": [
        *_setup("c1", 3), _stream("c1", "m1", "audio", "standard"),
        _api("remove_party", connection="c1", party="c1-p1"),
        _api("remove_party", connection="c1", party="c1-p2"),
        _api("add_party", connection="c1", party="c1-late"),
        _api("close_session", connection="c1"),
    ],
    "media-reconfiguration": [
        *_setup("c1", 2), _stream("c1", "m1", "video", "standard"),
        *[_api("reconfigure_stream", connection="c1", medium="m1", quality=q)
          for q in ("high", "low", "standard")],
        _api("close_session", connection="c1"),
    ],
    "stream-lifecycle": [
        *_setup("c1", 2), _stream("c1", "m1", "audio", "standard"),
        _stream("c1", "m2", "text", "low"),
        _api("close_stream", connection="c1", medium="m2"),
        _stream("c1", "m3", "file", "standard"),
        _api("close_stream", connection="c1", medium="m1"),
        _api("close_stream", connection="c1", medium="m3"),
        _api("close_session", connection="c1"),
    ],
    "failure-recovery": [
        *_setup("c1", 3), _stream("c1", "m1", "audio", "standard"),
        ("fail", "c1"), ("recover", "c1"),
        _api("add_party", connection="c1", party="c1-after"),
        _api("close_session", connection="c1"),
    ],
    "setup-teardown": [
        *_setup("c1", 4), _stream("c1", "m1", "audio", "standard"),
        _stream("c1", "m2", "video", "high"),
        _api("close_stream", connection="c1", medium="m2"),
        _api("close_stream", connection="c1", medium="m1"),
        _api("close_session", connection="c1"),
    ],
    "multi-session": [
        *_setup("c1", 2), *_setup("c2", 3),
        _stream("c1", "m1", "audio", "standard"),
        _stream("c2", "m2", "video", "standard"),
        _api("reconfigure_stream", connection="c2", medium="m2",
             quality="high"),
        _api("close_session", connection="c1"),
        _api("close_session", connection="c2"),
    ],
}

#: arguments holding ids local to one scenario, renamed per session.
_LOCAL_IDS = ("connection", "medium", "party")


def _scoped(step: tuple, key: str) -> dict[str, Any]:
    tag = step[0]
    if tag == "api":
        args = {
            name: f"{key}.{value}" if name in _LOCAL_IDS else value
            for name, value in step[2].items()
        }
        return {"op": "api", "api": step[1], "args": args}
    return {"op": tag, "conn": f"{key}.{step[1]}"}


def api_sessions(seed: int, *, prefix: str = "s") -> Iterator[tuple[str, list[dict]]]:
    """Endless ``(key, docs)`` sessions, scenarios drawn by ``seed``."""
    rng = random.Random(seed)
    names = sorted(SCENARIOS)
    for index in itertools.count():
        key = f"{prefix}{index:05d}"
        yield key, [_scoped(step, key) for step in SCENARIOS[rng.choice(names)]]


# -- application models and id-preserving edits -------------------------------


class _Ids:
    def __init__(self) -> None:
        self.next = 1

    def __call__(self, cls: str) -> str:
        value = f"{cls.lower()}#{self.next}"
        self.next += 1
        return value


def _obj(ids: _Ids, cls: str, attrs: dict, refs: dict | None = None) -> dict:
    doc = {"id": ids(cls), "class": cls, "attrs": attrs}
    if refs:
        doc["refs"] = refs
    return doc


def _envelope(metamodel: str, name: str, root: dict) -> dict:
    return {"format": "repro-model", "version": 1, "metamodel": metamodel,
            "name": name, "roots": [root]}


_MEDIA = ("audio", "video", "text", "file")
_QUALITIES = ("low", "standard", "high")


def _comm_medium(ids: _Ids, rng: random.Random, kind: str) -> dict:
    return _obj(ids, "Medium", {"kind": kind, "quality": rng.choice(_QUALITIES)})


def _comm_base(rng: random.Random, ids: _Ids, name: str) -> dict:
    persons = [
        _obj(ids, "Person", {"userId": f"u{i}", "name": f"u{i}",
                             "role": "initiator" if i == 0 else "participant"})
        for i in range(12)
    ]
    connections = []
    for index in range(10):
        pair = rng.sample(persons, 2)
        kind = rng.choice(_MEDIA)
        connections.append(_obj(ids, "Connection", {"name": f"k{index}"}, {
            "participants": [{"$ref": p["id"]} for p in pair],
            "media": [_comm_medium(ids, rng, kind)],
        }))
    return _envelope("cml", name, _obj(ids, "CommSchema", {"name": name}, {
        "persons": persons, "connections": connections}))


def _comm_edit(rng: random.Random, ids: _Ids, root: dict) -> str:
    connections = root["refs"]["connections"]
    conn = rng.choice(connections)
    media = conn["refs"]["media"]
    free = [k for k in _MEDIA if k not in {m["attrs"]["kind"] for m in media}]
    move = rng.choice(("add", "remove", "change"))
    if move == "remove" and len(media) > 1:
        media.pop(rng.randrange(len(media)))
        return "remove"
    if move in ("add", "remove") and free:
        media.append(_comm_medium(ids, rng, rng.choice(free)))
        return "add"
    medium = rng.choice(media)
    medium["attrs"]["quality"] = rng.choice(
        [q for q in _QUALITIES if q != medium["attrs"]["quality"]])
    return "change"


_GRID_MODES = ("off", "on", "standby")


def _grid_device(ids: _Ids, rng: random.Random, number: int) -> dict:
    kind = rng.choice(("load", "load", "generator"))
    return _obj(ids, "DeviceSpec", {
        "deviceId": f"dev{number}", "kind": kind,
        "powerRating": float(rng.randrange(50, 3000, 50)),
        "mode": rng.choice(_GRID_MODES), "priority": rng.randrange(1, 4)})


def _grid_base(rng: random.Random, ids: _Ids, name: str) -> dict:
    devices = [_grid_device(ids, rng, n) for n in range(32)]
    return _envelope("mgridml", name, _obj(ids, "MGridModel", {
        "name": name, "gridImportLimit": 50000.0}, {"devices": devices}))


def _grid_edit(rng: random.Random, ids: _Ids, root: dict) -> str:
    devices = root["refs"]["devices"]
    move = rng.choice(("add", "remove", "change"))
    if move == "add" or len(devices) < 8:
        devices.append(_grid_device(ids, rng, ids.next))
        return "add"
    if move == "remove":
        devices.pop(rng.randrange(len(devices)))
        return "remove"
    attrs = rng.choice(devices)["attrs"]
    attrs["mode"] = rng.choice([m for m in _GRID_MODES if m != attrs["mode"]])
    return "change"


_SPACE_KINDS = {"lamp": ("light", lambda r: r.randrange(0, 101, 10)),
                "fan": ("speed", lambda r: r.randrange(0, 4)),
                "door": ("locked", lambda r: r.random() < 0.5)}


def _space_object(ids: _Ids, rng: random.Random, number: int) -> dict:
    kind = rng.choice(sorted(_SPACE_KINDS))
    capability, value = _SPACE_KINDS[kind]
    return _obj(ids, "SmartObjectSpec", {
        "objectId": f"{kind}{number}", "kind": kind, "node": "node0"}, {
        "settings": [_obj(ids, "Setting", {"capability": capability,
                                           "value": value(rng)})]})


def _space_base(rng: random.Random, ids: _Ids, name: str) -> dict:
    objects = [_space_object(ids, rng, n) for n in range(16)]
    return _envelope("ssml", name, _obj(ids, "SpaceModel", {"name": name},
                                        {"objects": objects}))


def _space_edit(rng: random.Random, ids: _Ids, root: dict) -> str:
    objects = root["refs"]["objects"]
    move = rng.choice(("add", "remove", "change"))
    if move == "add" or len(objects) < 4:
        objects.append(_space_object(ids, rng, ids.next))
        return "add"
    if move == "remove":
        objects.pop(rng.randrange(len(objects)))
        return "remove"
    target = rng.choice(objects)
    setting = target["refs"]["settings"][0]["attrs"]
    _capability, value = _SPACE_KINDS[target["attrs"]["kind"]]
    old = setting["value"]
    while setting["value"] == old:
        setting["value"] = value(rng)
    return "change"


_SENSORS = ("temperature", "noise", "gps")
_AGGREGATES = ("mean", "max", "min", "count")


def _sensing_query(ids: _Ids, rng: random.Random, number: int) -> dict:
    return _obj(ids, "SensingQuery", {
        "name": f"q{number}", "sensor": rng.choice(_SENSORS), "region": "",
        "aggregate": rng.choice(_AGGREGATES),
        "minBattery": float(rng.randrange(0, 60, 10)), "active": True})


def _sensing_base(rng: random.Random, ids: _Ids, name: str) -> dict:
    queries = [_sensing_query(ids, rng, n) for n in range(32)]
    return _envelope("csml", name, _obj(ids, "Campaign", {"name": name},
                                        {"queries": queries}))


def _sensing_edit(rng: random.Random, ids: _Ids, root: dict) -> str:
    queries = root["refs"]["queries"]
    move = rng.choice(("add", "remove", "change"))
    if move == "add" or len(queries) < 8:
        queries.append(_sensing_query(ids, rng, ids.next))
        return "add"
    if move == "remove":
        queries.pop(rng.randrange(len(queries)))
        return "remove"
    attrs = rng.choice(queries)["attrs"]
    attrs["aggregate"] = rng.choice(
        [a for a in _AGGREGATES if a != attrs["aggregate"]])
    return "change"


_MODELS = {
    "communication": (_comm_base, _comm_edit),
    "microgrid": (_grid_base, _grid_edit),
    "smartspace": (_space_base, _space_edit),
    "crowdsensing": (_sensing_base, _sensing_edit),
}


def edit_session(rng: random.Random, domain: str, name: str, edits: int) -> list[dict]:
    """A base ``run_model`` doc followed by ``edits`` one-entity edits."""
    base, edit = _MODELS[domain]
    ids = _Ids()
    model = base(rng, ids, name)
    docs = [{"op": "run_model", "model": copy.deepcopy(model)}]
    for _ in range(edits):
        edit(rng, ids, model["roots"][0])
        docs.append({"op": "run_model", "model": copy.deepcopy(model)})
    return docs


def edit_sessions(seed: int, *, edits: int = 8) -> Iterator[tuple[str, str, list[dict]]]:
    """Endless ``(key, domain, docs)`` sessions cycling the domains."""
    rng = random.Random(seed)
    for index in itertools.count():
        domain = DOMAINS[index % len(DOMAINS)]
        yield f"m{index:05d}", domain, edit_session(rng, domain, f"app{index}", edits)


# -- open-loop schedule --------------------------------------------------------


#: ingress-open sessions per second, set once and never adapted: about
#: half the 2-shard open-loop capacity on the reference box (see
#: NOTES.md for how the capacity was measured).
OPEN_RATE = 100.0


def poisson_arrivals(seed: int, rate: float, seconds: float) -> list[float]:
    """Arrival offsets (s) of a Poisson process of ``rate``/s."""
    rng = random.Random(seed)
    times, now = [], rng.expovariate(rate)
    while now < seconds:
        times.append(now)
        now += rng.expovariate(rate)
    return times


def fingerprint(seed: int) -> str:
    """Digest of the first inputs every generator yields for ``seed``
    (the first 2 s of the ingress-open schedule; identical for identical
    seeds); runs print it with the seed."""
    digest = hashlib.sha256()
    for part in (list(itertools.islice(api_sessions(seed), 64)),
                 list(itertools.islice(edit_sessions(seed), 8)),
                 poisson_arrivals(seed, OPEN_RATE, 2.0)):
        digest.update(json.dumps(part, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()[:16]
