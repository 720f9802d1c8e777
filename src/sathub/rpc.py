"""Client side of the JSON web-call envelope over HTTP."""

from __future__ import annotations

import json
import urllib.error
import urllib.request


class TransportError(ConnectionError):
    """The envelope could not be delivered or the reply was not a JSON object."""


def web_call(
    endpoint: str,
    method: str,
    argument: dict | None = None,
    object_ref: str = "",
    web_pid: str = "",
    timeout: float = 600.0,
) -> dict:
    """POST one envelope and return the JSON result object.

    Application failures come back inside the result's "error" field;
    TransportError is reserved for delivery problems.
    """
    envelope = {
        "method": method,
        "webPid": web_pid,
        "objectRef": object_ref,
        "argument": argument or {},
    }
    request = urllib.request.Request(
        endpoint.rstrip("/") + "/webcall",
        data=json.dumps(envelope).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            result = json.loads(response.read())
    except (urllib.error.URLError, OSError, ValueError) as exc:
        raise TransportError(f"web call {method} to {endpoint} failed: {exc}") from exc
    if not isinstance(result, dict):
        raise TransportError(f"web call {method} to {endpoint} answered {result!r:.80}")
    return result
