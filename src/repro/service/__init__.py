"""repro.service -- verification as a service over the fleet pool.

The paper's farm served a whole design team; this package is the front
door that makes the miniature farm (:mod:`repro.fleet`) multi-user.  A
long-running asyncio process accepts design submissions over a
JSON-lines socket protocol (:mod:`repro.service.protocol`), arbitrates
tenants with weighted deficit-round-robin admission and backpressure
(:mod:`repro.service.tenants`), streams each campaign's event log live
with a resumable cursor, and answers repeat submissions from a
cross-user verdict cache (:mod:`repro.store.verdicts`) with zero
battery executions -- identical in-flight submissions coalesce onto
one running campaign.

The reports it serves keep the repo's central invariant: the canonical
JSON fetched through the service is byte-identical to a direct
single-process ``CbvCampaign.run`` of the same bundle.

Quickstart::

    from repro.service import ServiceClient, ServiceConfig, ServiceThread

    handle = ServiceThread(ServiceConfig(workers=2))
    host, port = handle.start()
    client = ServiceClient(host, port)
    sub = client.submit("repro.fleet.suite:alpha_slice", tenant="demo")
    for event in client.events(sub["campaign"]):
        print(event["event"], event.get("name", ""))
    canonical = client.report(sub["campaign"], canonical=True)
    handle.stop()

or from a shell: ``repro-serve --port 7997`` (also
``python -m repro.service``).
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    ERROR_CODES,
    MAX_LINE,
    PROTOCOL_VERSION,
    CampaignState,
)
from repro.service.server import (
    CampaignRecord,
    ServiceConfig,
    ServiceThread,
    VerificationService,
)
from repro.service.suite import VARIANT_COUNT, variant_bundle, variant_ref
from repro.service.tenants import Backpressure, TenantScheduler

__all__ = [
    "Backpressure",
    "CampaignRecord",
    "CampaignState",
    "ERROR_CODES",
    "MAX_LINE",
    "PROTOCOL_VERSION",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceMetrics",
    "ServiceThread",
    "TenantScheduler",
    "VARIANT_COUNT",
    "VerificationService",
    "variant_bundle",
    "variant_ref",
]
