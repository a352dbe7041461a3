"""The one HTTP path: request, status check and retry policy for every client.

Chat completions, embeddings and the remote report fetch all go through
`send`, so they share one policy. Transport errors and 429 answers are
retried; a 429 waits for its Retry-After, anything else backs off
exponentially. Every other non-2xx status fails at once.
"""

import logging
import time

import requests

logger = logging.getLogger(__name__)

MAX_RETRY_AFTER_S = 30.0
MAX_BACKOFF_S = 4.0


def _retry_after(response) -> float:
    """Seconds a 429 asks us to wait, capped; 1 s when the header is unusable."""
    try:
        return min(float(response.headers.get("Retry-After", "1")), MAX_RETRY_AFTER_S)
    except ValueError:
        return 1.0


def send(session, method: str, url: str, what: str, error, retries: int, **kwargs):
    """Make one request under the shared retry policy; return the 2xx response.

    `session` is a requests.Session (or anything with the same per-method
    calls); `kwargs` go to `session.<method>` unchanged. `what` names the
    endpoint in error messages.

    Raises:
        error: a non-2xx status other than 429, or all `retries + 1`
            attempts failed with transport errors or 429s.
    """
    call = getattr(session, method)
    last_error, delay = None, 0.0
    for attempt in range(retries + 1):
        if attempt:
            time.sleep(delay)
        try:
            response = call(url, **kwargs)
        except requests.RequestException as exc:
            logger.debug("%s attempt %d failed: %s", what, attempt + 1, exc)
            last_error, delay = exc, min(0.5 * 2 ** attempt, MAX_BACKOFF_S)
            continue
        if response.status_code == 429:
            last_error, delay = None, _retry_after(response)
            logger.info("%s rate limited, waiting %.1f s", what, delay)
            continue
        if response.status_code // 100 != 2:
            raise error(f"{what} returned {response.status_code}: {response.text[:200]}")
        return response
    raise error(f"{what} unreachable after {retries + 1} attempts: {last_error or 'rate limited'}")
