"""The single-stream fleet-health service: one fleet, unprefixed routes.

:class:`StreamService` is :class:`~repro.stream.tenancy
.MultiTenantService` with one tenant and ``single=True`` — the service
``repro stream --follow DIR`` runs — plus one-tenant conveniences that
delegate to the lone runtime.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional

from ..pipeline.coalesce import DEFAULT_WINDOW_SECONDS, WindowMode
from ..pipeline.health import PipelineHealthReport
from .estimators import DEFAULT_NODE_COUNT, FleetEstimators
from .ingest import StreamIngest
from .tenancy import SINGLE_TENANT, MultiTenantService, TenantSpec

__all__ = ["StreamService"]


class StreamService(MultiTenantService):
    """The fleet-health daemon over one growing syslog directory.

    Args:
        follow_dir: artifact directory (containing ``syslog/``) or the
            syslog directory itself; ``inventory.json`` is picked up
            from the artifact level when present.
        checkpoint_dir: directory for the durable resume state
            (``None`` disables checkpointing).
        window_seconds: coalescing Δt.
        mode: coalescing window semantics.
        node_count: fleet size for per-node MTBE scaling.
        fleet_out: path to write the final fleet snapshot JSON to on
            shutdown/drain.
        alerts_out: JSON-lines file receiving fired alerts.
        **options: :class:`~repro.stream.tenancy.MultiTenantService`
            keywords (``port``, ``resume``, ``once``, ``poll_interval``,
            ``idle_exit``, ``window``, ``request_obs``, …).
    """

    def __init__(
        self,
        follow_dir: Path,
        *,
        checkpoint_dir: Optional[Path] = None,
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
        mode: WindowMode = WindowMode.TUMBLING,
        node_count: int = DEFAULT_NODE_COUNT,
        fleet_out: Optional[Path] = None,
        alerts_out: Optional[Path] = None,
        **options,
    ) -> None:
        spec = TenantSpec(
            SINGLE_TENANT,
            Path(follow_dir),
            window_seconds=window_seconds,
            mode=mode,
            node_count=node_count,
            fleet_out=Path(fleet_out) if fleet_out is not None else None,
            alerts_out=Path(alerts_out) if alerts_out is not None else None,
        )
        super().__init__(
            [spec], checkpoint_root=checkpoint_dir, single=True, **options
        )
        self._runtime = self.runtimes[0]

    @property
    def ingest(self) -> StreamIngest:
        """The current core's ingest state."""
        return self._runtime.core.ingest

    @property
    def estimators(self) -> FleetEstimators:
        """The current core's online estimators."""
        return self._runtime.core.estimators

    def poll_once(self, final: bool = False) -> int:
        """One locked poll cycle; returns the lines ingested."""
        return self._runtime.poll_once(final=final)

    def checkpoint(self) -> Optional[Path]:
        """Persist resume state (between polls only)."""
        return self._runtime.checkpoint()

    def fleet_snapshot(self) -> Dict[str, object]:
        """``/v1/fleet``: the authoritative report plus the online view."""
        return self._runtime.fleet_snapshot()

    def health_report(self) -> PipelineHealthReport:
        """The live data-quality report (CLI summary on exit)."""
        return self._runtime.health_report()
