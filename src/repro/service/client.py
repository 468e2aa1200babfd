"""Stdlib HTTP client for the study service (what the CLI speaks).

A thin, dependency-free wrapper over :mod:`urllib.request`: every method
maps to one endpoint, JSON error bodies become :class:`ServiceError`
(carrying the HTTP status and the structured payload — e.g. a spec
validation error's ``field`` / ``allowed`` diagnosis), a service that
cannot be reached or drops the connection becomes a status-0
``unreachable`` :class:`ServiceError`, and :meth:`ServiceClient.wait`
holds status requests until a job reaches a terminal state.
"""

from __future__ import annotations

import http.client
import json
import os
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Optional

from repro.exceptions import ReproError

__all__ = ["ServiceClient", "ServiceError", "SERVICE_URL_ENV_VAR",
           "CLIENT_ENV_VAR", "default_service_url"]

#: Environment variable naming the service base URL for the CLI.
SERVICE_URL_ENV_VAR = "REPRO_SERVICE_URL"

#: Environment variable naming the client (tenant) for the CLI.
CLIENT_ENV_VAR = "REPRO_CLIENT"


def default_service_url() -> str:
    """The CLI's service URL: ``$REPRO_SERVICE_URL`` or the local default."""
    from repro.service.daemon import DEFAULT_PORT

    return os.environ.get(SERVICE_URL_ENV_VAR,
                          f"http://127.0.0.1:{DEFAULT_PORT}")


class ServiceError(ReproError):
    """An HTTP error from the service, with its structured payload."""

    def __init__(self, status: int, payload: Dict[str, Any]) -> None:
        message = payload.get("message") or payload.get("error") or "error"
        super().__init__(f"service returned {status}: {message}")
        self.status = status
        self.payload = payload


class ServiceClient:
    """One service endpoint plus the caller's tenant identity."""

    def __init__(self, url: Optional[str] = None, *,
                 client: Optional[str] = None,
                 timeout: float = 30.0) -> None:
        self.url = (url or default_service_url()).rstrip("/")
        self.client = (client
                       or os.environ.get(CLIENT_ENV_VAR)
                       or "anonymous")
        self.timeout = timeout

    # ------------------------------------------------------------------
    def _request(self, method: str, path: str, *,
                 body: Optional[Dict[str, Any]] = None,
                 headers: Optional[Dict[str, str]] = None,
                 raw: bool = False) -> Any:
        data = (json.dumps(body).encode("utf-8")
                if body is not None else None)
        request = urllib.request.Request(
            self.url + path, data=data, method=method)
        request.add_header("X-Client", self.client)
        if data is not None:
            request.add_header("Content-Type", "application/json")
        for key, value in (headers or {}).items():
            request.add_header(key, value)
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as response:
                text = response.read().decode("utf-8")
                kind = response.headers.get("Content-Type", "")
        except urllib.error.HTTPError as error:
            try:
                payload = json.loads(error.read().decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                payload = {"error": "http", "message": error.reason}
            raise ServiceError(error.code, payload) from None
        except urllib.error.URLError as error:
            raise ServiceError(0, {
                "error": "unreachable",
                "message": f"cannot reach service at {self.url}: "
                           f"{error.reason}",
            }) from None
        except (OSError, http.client.HTTPException) as error:
            # The daemon accepted the request, then the connection dropped
            # (closed, reset, timed out or cut mid-body).
            raise ServiceError(0, {
                "error": "unreachable",
                "message": f"lost connection to service at {self.url}: "
                           f"{type(error).__name__}: {error}",
            }) from None
        if not raw and kind.startswith("application/json"):
            return json.loads(text)
        return text

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        """``GET /healthz``."""
        return self._request("GET", "/healthz")

    def submit(self, spec: Dict[str, Any],
               priority: int = 0) -> Dict[str, Any]:
        """``POST /jobs`` — returns the created job's summary."""
        return self._request("POST", "/jobs", body=spec,
                             headers={"X-Priority": str(priority)})

    def jobs(self, *, state: Optional[str] = None,
             client: Optional[str] = None) -> Dict[str, Any]:
        """``GET /jobs`` — listing plus the caller's quota accounting."""
        query = "&".join(f"{key}={value}" for key, value in
                         (("state", state), ("client", client))
                         if value is not None)
        return self._request("GET", "/jobs" + (f"?{query}" if query else ""))

    def job(self, job_id: str, *,
            wait: Optional[float] = None) -> Dict[str, Any]:
        """``GET /jobs/<id>`` — state, progress, resume point.

        With ``wait``, the daemon holds the request until the job is
        terminal or ``wait`` seconds pass (``GET /jobs/<id>?wait=<s>``); keep
        it below the client's ``timeout``, which bounds the whole request.
        """
        query = f"?wait={wait:.3f}" if wait is not None else ""
        return self._request("GET", f"/jobs/{job_id}{query}")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """``POST /jobs/<id>/cancel`` — returns the resulting state."""
        return self._request("POST", f"/jobs/{job_id}/cancel")

    def results(self, job_id: str, fmt: str = "json") -> str:
        """``GET /jobs/<id>/results`` — the serialised result text.

        Returned verbatim (not parsed) so the bytes written to disk are
        exactly what the store serialised — the byte-identity contract.
        """
        return self._request("GET", f"/jobs/{job_id}/results?format={fmt}",
                             raw=True)

    # ------------------------------------------------------------------
    def wait(self, job_id: str, *, timeout: Optional[float] = None,
             poll: float = 0.25) -> Dict[str, Any]:
        """Wait until the job reaches a terminal state; return its status.

        Each status request is held by the daemon until the job ends, for
        less than both the remaining ``timeout`` and half the client's
        socket ``timeout``, so a job that ends is reported at once.
        ``poll`` is the pause after an answer that is still not terminal:
        a hold that expired, or a daemon that ignores ``wait``.
        """
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        while True:
            hold = self.timeout / 2
            if deadline is not None:
                hold = max(0.0, min(hold, deadline - time.monotonic()))
            status = self.job(job_id, wait=hold)
            if status["state"] in ("done", "failed", "cancelled"):
                return status
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError(0, {
                    "error": "timeout",
                    "message": f"job {job_id} still {status['state']} "
                               f"after {timeout}s",
                })
            time.sleep(poll)
