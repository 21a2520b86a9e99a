"""The five workloads.  Names are fixed: later issues cite them."""

from __future__ import annotations

from typing import Dict

from workloads.base import Workload
from workloads.campaign_store import CampaignStore
from workloads.figures_quick import FiguresQuick
from workloads.service_kv import ServiceKV
from workloads.steady_paper import SteadyPaper
from workloads.suspicion_n15 import SuspicionN15

REGISTRY: Dict[str, Workload] = {
    workload.name: workload
    for workload in (SteadyPaper(), SuspicionN15(), FiguresQuick(), ServiceKV(), CampaignStore())
}

__all__ = ["REGISTRY", "Workload"]
