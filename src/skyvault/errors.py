"""Exception hierarchy with stable machine-readable error codes.

Every error carries a ``code`` string that stays stable across releases;
the CLI (on stderr) and the HTTP service (in the reply body) surface it
as ``to_json()``, so scripts can match on it instead of parsing prose.
"""

from __future__ import annotations


class SkyVaultError(Exception):
    """Base class for every error raised by this package."""

    code = "error"

    def details(self) -> dict:
        """Extra machine-readable context for structured error output."""
        return {}

    def to_json(self) -> dict:
        return {"error": self.code, "message": str(self), **self.details()}


# -- crypto ------------------------------------------------------------------

class EmptyIdentifier(SkyVaultError):
    code = "empty_identifier"


class EmptyPassword(SkyVaultError):
    code = "empty_password"


class BadSeedLength(SkyVaultError):
    code = "bad_seed_length"


class BadKeyLength(SkyVaultError):
    code = "bad_key_length"


class OpenFailed(SkyVaultError):
    """Sealed envelope could not be opened: wrong key or tampered data."""

    code = "open_failed"


class AuthFailed(SkyVaultError):
    """Authenticated decryption failed: wrong key or tampered ciphertext."""

    code = "auth_failed"


# -- identity ----------------------------------------------------------------

class BadIdentifier(SkyVaultError):
    """Account id that is not a safe file name in the state directory."""

    code = "bad_identifier"


class DuplicateId(SkyVaultError):
    code = "duplicate_id"


class WeakPassword(SkyVaultError):
    code = "weak_password"


class UnknownId(SkyVaultError):
    code = "unknown_id"


class UnknownChallenge(SkyVaultError):
    code = "unknown_challenge"


class Expired(SkyVaultError):
    code = "expired"


class ResponseMismatch(SkyVaultError):
    code = "response_mismatch"


class InvalidToken(SkyVaultError):
    code = "invalid_token"


# -- storage -----------------------------------------------------------------

class BadChunkSize(SkyVaultError):
    code = "bad_chunk_size"


class EmptyFile(SkyVaultError):
    code = "empty_file"


class InsufficientHosts(SkyVaultError):
    code = "insufficient_hosts"


class UnknownSkylink(SkyVaultError):
    code = "unknown_skylink"


class UnknownHost(SkyVaultError):
    code = "unknown_host"


class HostDown(SkyVaultError):
    """A failed host rejects every fetch/store request."""

    code = "host_down"


class KeyAccessDenied(SkyVaultError):
    """Requester's private key cannot open the manifest's file key."""

    code = "key_access_denied"


class IntegrityFailure(SkyVaultError):
    """Stored data no longer matches its recorded digest.

    Attributable: carries the chunk index and the offending host id
    (both ``None`` only for the whole-file digest check).
    """

    code = "integrity_failure"

    def __init__(self, message: str, chunk_index: int | None = None,
                 host_id: str | None = None):
        super().__init__(message)
        self.chunk_index = chunk_index
        self.host_id = host_id

    def details(self) -> dict:
        return {"chunk_index": self.chunk_index, "host_id": self.host_id}


class AllReplicasDown(SkyVaultError):
    code = "all_replicas_down"

    def __init__(self, message: str, chunk_index: int | None = None):
        super().__init__(message)
        self.chunk_index = chunk_index

    def details(self) -> dict:
        return {"chunk_index": self.chunk_index}


# -- ledger ------------------------------------------------------------------

class BadSignature(SkyVaultError):
    code = "bad_signature"


class StaleTimestamp(SkyVaultError):
    code = "stale_timestamp"


class DuplicateTransaction(SkyVaultError):
    code = "duplicate_transaction"


class MalformedTransaction(SkyVaultError):
    code = "malformed_transaction"


class NothingToMine(SkyVaultError):
    code = "nothing_to_mine"


class UnknownTransaction(SkyVaultError):
    code = "unknown_transaction"


class ChainCorrupt(SkyVaultError):
    """Persisted chain file failed framing, checksum, or field parsing."""

    code = "chain_corrupt"


class ChainInvalid(SkyVaultError):
    code = "chain_invalid"

    def __init__(self, first_bad_height: int):
        super().__init__(f"chain fails verification at height {first_bad_height}")
        self.first_bad_height = first_bad_height

    def details(self) -> dict:
        return {"first_bad_height": self.first_bad_height}


# -- licensing ---------------------------------------------------------------

class InvalidRules(SkyVaultError):
    code = "invalid_rules"


class EmptyRights(SkyVaultError):
    code = "empty_rights"


class UnknownAction(SkyVaultError):
    code = "unknown_action"


class RightsDenied(SkyVaultError):
    """Key redemption refused by the license's rules."""

    code = "rights_denied"

    def __init__(self, reason: str):
        super().__init__(f"rights denied: {reason}")
        self.reason = reason

    def details(self) -> dict:
        return {"reason": self.reason}


class NotAuthenticated(SkyVaultError):
    code = "not_authenticated"


class UnknownContent(SkyVaultError):
    code = "unknown_content"


class LedgerRejected(SkyVaultError):
    code = "ledger_rejected"


# -- hls ---------------------------------------------------------------------

class EmptyMedia(SkyVaultError):
    code = "empty_media"


class MissingSegment(SkyVaultError):
    code = "missing_segment"

    def __init__(self, name: str):
        super().__init__(f"missing segment: {name}")
        self.name = name

    def details(self) -> dict:
        return {"segment": self.name}


class PaddingError(SkyVaultError):
    """Segment decryption produced invalid padding: wrong key or corruption."""

    code = "padding_error"


class MalformedPlaylist(SkyVaultError):
    code = "malformed_playlist"


class NoRenditions(SkyVaultError):
    code = "no_renditions"


class DuplicateBandwidth(SkyVaultError):
    code = "duplicate_bandwidth"


# -- state / cli -------------------------------------------------------------

class BadConfig(SkyVaultError):
    code = "bad_config"


class StateMissing(SkyVaultError):
    code = "state_missing"


class StateCorrupt(SkyVaultError, ValueError):
    """A state file that exists but does not decode (a ValueError, like
    the decode errors it stands for)."""

    code = "state_corrupt"


class UnknownLicense(SkyVaultError):
    code = "unknown_license"


class OutputUnwritable(SkyVaultError):
    code = "output_unwritable"


class BindFailed(SkyVaultError):
    code = "bind_failed"


class AlreadyPublished(SkyVaultError):
    code = "already_published"
