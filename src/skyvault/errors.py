"""Exception hierarchy with stable machine-readable error codes.

Every failure this package reports is a ``SkyVaultError``: a ``code``
that stays stable across releases, a message and any details. Its
``to_json()`` is the one rendering, on the CLI's stderr and in the HTTP
service's reply body, so scripts can match on the code, not on prose.
"""

from __future__ import annotations


class SkyVaultError(Exception):
    """Base class for every error raised by this package.

    DETAILS are kept once: each is an attribute (``exc.chunk_index``),
    and ``to_json()`` emits them after the message, in the order given.
    """

    code = "error"

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = details
        vars(self).update(details)

    def to_json(self) -> dict:
        return {"error": self.code, "message": str(self), **self.details}


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
    """Stored data no longer matches its recorded digest; carries
    ``chunk_index`` and ``host_id``, both None for the whole-file check."""

    code = "integrity_failure"


class AllReplicasDown(SkyVaultError):
    """No live replica holds a chunk; carries its ``chunk_index``."""

    code = "all_replicas_down"


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
    """A decoded chain fails verification; carries ``first_bad_height``."""

    code = "chain_invalid"


# -- licensing ---------------------------------------------------------------

class InvalidRules(SkyVaultError):
    code = "invalid_rules"


class EmptyRights(SkyVaultError):
    code = "empty_rights"


class UnknownAction(SkyVaultError):
    code = "unknown_action"


class RightsDenied(SkyVaultError):
    """Key redemption refused by the license's rules; carries ``reason``."""

    code = "rights_denied"


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
    """A segment the playlist names is absent; carries its name, ``segment``."""

    code = "missing_segment"


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


class StateCorrupt(SkyVaultError):
    """A state file that exists but does not decode."""

    code = "state_corrupt"


class UnknownLicense(SkyVaultError):
    code = "unknown_license"


class OutputUnwritable(SkyVaultError):
    code = "output_unwritable"


class BindFailed(SkyVaultError):
    code = "bind_failed"


class AlreadyPublished(SkyVaultError):
    code = "already_published"
