"""The four shipped domains' two-phase session workloads.

Each :class:`DomainCase` describes one domain's service/DSK/middleware
triple plus an application model before and after an in-session edit.
These are the canonical descriptions the cluster worker's default DSK
registry (:func:`repro.middleware.cluster.default_registry`), the
``repro trace --replay`` / ``repro aot-gen`` commands and the
benchmarks share.

The module composes the domains with the engine, so it sits at the top
of the package beside :mod:`repro.cli`, not inside
:mod:`repro.domains`: no module of :mod:`repro.middleware` imports a
domain or simulator package (``test_multidomain`` holds that rule).
:func:`domain_cases` imports only the domains, the loader and the
simulators, so a cluster worker that builds its registry loads no
benchmark or baseline module.
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["DomainCase", "domain_cases", "fresh_session"]


class DomainCase:
    """One domain's two-phase session workload.

    ``service`` builds a fresh simulated resource (the external world
    whose ``op_log`` is the correctness witness), ``knowledge`` wraps
    it in the domain's DSK, ``middleware`` builds the shipped
    middleware model, and ``phase1``/``phase2`` build the application
    model before and after the in-session edit.
    """

    __slots__ = (
        "name", "service", "knowledge", "middleware", "context",
        "phase1", "phase2",
    )

    def __init__(
        self,
        name: str,
        *,
        service: Callable[[], Any],
        knowledge: Callable[[Any], Any],
        middleware: Callable[[], Any],
        context: dict[str, Any],
        phase1: Callable[[], Any],
        phase2: Callable[[], Any],
    ) -> None:
        self.name = name
        self.service = service
        self.knowledge = knowledge
        self.middleware = middleware
        self.context = context
        self.phase1 = phase1
        self.phase2 = phase2


def domain_cases() -> list[DomainCase]:
    """The four domains' two-phase workloads."""
    from repro.domains.communication.cml import (
        CmlBuilder,
        cml_constraints,
        cml_metamodel,
    )
    from repro.domains.communication.cvm import (
        build_middleware_model as comm_middleware,
        default_context as comm_context,
    )
    from repro.domains.crowdsensing.csml import (
        QueryBuilder,
        csml_constraints,
        csml_metamodel,
    )
    from repro.domains.crowdsensing.csvm import (
        build_middleware_model as cs_middleware,
    )
    from repro.domains.microgrid.mgridml import (
        MGridBuilder,
        mgridml_constraints,
        mgridml_metamodel,
    )
    from repro.domains.microgrid.mgridvm import (
        build_middleware_model as grid_middleware,
        default_context as grid_context,
    )
    from repro.domains.smartspace.ssml import (
        SpaceBuilder,
        ssml_constraints,
        ssml_metamodel,
    )
    from repro.domains.smartspace.ssvm import build_full_model
    from repro.middleware.loader import DomainKnowledge
    from repro.sim.fleet import DeviceFleet
    from repro.sim.network import CommService
    from repro.sim.plant import PlantController
    from repro.sim.space import SmartSpace

    def comm_model(extended: bool) -> Any:
        builder = CmlBuilder("conference")
        alice = builder.person("alice", role="initiator")
        bob = builder.person("bob")
        builder.connection("c1", [alice, bob], media=["audio"])
        if extended:
            carol = builder.person("carol")
            builder.connection("c2", [alice, carol], media=["text"])
        return builder.build()

    def grid_model(extended: bool) -> Any:
        builder = MGridBuilder("home", grid_import_limit=5000.0)
        builder.device("heater", "load", 300.0, mode="on")
        builder.device("solar1", "generator", 2000.0, mode="on", priority=2)
        if extended:
            builder.device("cooler", "load", 150.0, mode="on")
        return builder.build()

    def space_model(extended: bool) -> Any:
        builder = SpaceBuilder("lab")
        builder.smart_object("lamp1", kind="lamp", settings={"light": 0})
        builder.smart_object("door1", kind="door", settings={"locked": True})
        if extended:
            builder.smart_object("fan1", kind="fan", settings={"speed": 0})
        return builder.build()

    def sensing_model(extended: bool) -> Any:
        builder = QueryBuilder("air")
        builder.query("t1", "temperature")
        if extended:
            builder.query("n1", "noise", aggregate="max")
        return builder.build()

    def fleet_with_devices() -> DeviceFleet:
        fleet = DeviceFleet("fleet0", op_cost=0.0)
        for index in range(3):
            fleet.op_register_device(f"d{index}")  # direct: not op-logged
        return fleet

    return [
        DomainCase(
            "communication",
            service=lambda: CommService("net0", op_cost=0.0),
            knowledge=lambda svc: DomainKnowledge(
                dsml=cml_metamodel(), resources=[svc],
                constraints=cml_constraints(),
            ),
            middleware=comm_middleware,
            context=comm_context(),
            phase1=lambda: comm_model(False),
            phase2=lambda: comm_model(True),
        ),
        DomainCase(
            "microgrid",
            service=lambda: PlantController("plant0", op_cost=0.0),
            knowledge=lambda svc: DomainKnowledge(
                dsml=mgridml_metamodel(), resources=[svc],
                constraints=mgridml_constraints(),
            ),
            middleware=grid_middleware,
            context=grid_context(),
            phase1=lambda: grid_model(False),
            phase2=lambda: grid_model(True),
        ),
        DomainCase(
            "smartspace",
            service=lambda: SmartSpace("space0", op_cost=0.0),
            knowledge=lambda svc: DomainKnowledge(
                dsml=ssml_metamodel(), resources=[svc],
                constraints=ssml_constraints(),
            ),
            middleware=build_full_model,
            context={},
            phase1=lambda: space_model(False),
            phase2=lambda: space_model(True),
        ),
        DomainCase(
            "crowdsensing",
            service=fleet_with_devices,
            knowledge=lambda svc: DomainKnowledge(
                dsml=csml_metamodel(), resources=[svc],
                constraints=csml_constraints(),
            ),
            middleware=cs_middleware,
            context={"fleet_battery": 100.0, "coverage_mode": "full"},
            phase1=lambda: sensing_model(False),
            phase2=lambda: sensing_model(True),
        ),
    ]


def fresh_session(case: DomainCase) -> tuple[Any, Any, Any]:
    """(service, dsk, started platform) for one session of ``case``."""
    from repro.middleware.loader import load_platform

    service = case.service()
    dsk = case.knowledge(service)
    platform = load_platform(case.middleware(), dsk)
    if platform.controller is not None and case.context:
        platform.controller.context.update(case.context)
    return service, dsk, platform
