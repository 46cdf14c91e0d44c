"""The template library.

These are the behaviours the paper's evaluation exercises:

- ``xor_decrypt_loop`` — the Figure 2/6 decryption-loop template: an xor
  read-modify-write through a pointer register, a pointer step, and a
  branch back.  Detects Figure 1(a)-(c), iis-asp style encoded payloads,
  Clet output, and ADMmutate's first decoder family.
- ``admmutate_alt_decoder`` — the Figure 7 template added after the 68%
  experiment: a load / mov-or-and-not compute chain / store decoder over a
  single memory-location-register pair.
- ``linux_shell_spawn`` — Figure 6: the execve("/bin/sh") behaviour
  (stack-constructed string + ``int 0x80`` with eax = 11).
- ``port_bind_shell`` — the extension noted in §5.1: socketcall
  socket/bind/listen before the shell spawn.
- ``codered_ii_vector`` — §5.3: the Code Red II initial exploitation
  vector (repeated pushes of 0x7801xxxx system-DLL addresses feeding an
  indirect call).

``generic_decrypt_loop`` is an extension beyond the paper: it widens the
rmw decoder family to add/sub/rol/ror/not, closing the obvious variant the
original template set would miss.
"""

from __future__ import annotations

from ..digest import sha1
from .template import (
    ConstBytesWrite,
    ConstCapture,
    IndirectCall,
    LoadFrom,
    LoopBack,
    MemRmw,
    PointerStep,
    PushValue,
    RegCompute,
    StoreTo,
    Syscall,
    Template,
)


def _looks_like_sockaddr_in(value: int) -> bool:
    """An AF_INET sockaddr head pushed as a little-endian dword:
    low word == 2 (AF_INET) and a non-zero network-order port word."""
    return (value & 0xFFFF) == 2 and (value >> 16) != 0


def sockaddr_port(value: int) -> int:
    """Extract the host-order TCP port from a captured sockaddr dword."""
    return ((value >> 16) & 0xFF) << 8 | ((value >> 24) & 0xFF)

__all__ = [
    "library_digest",
    "sockaddr_port",
    "xor_decrypt_loop",
    "admmutate_alt_decoder",
    "generic_decrypt_loop",
    "linux_shell_spawn",
    "port_bind_shell",
    "codered_ii_vector",
    "paper_templates",
    "xor_only_templates",
    "decoder_templates",
    "all_templates",
    "TEMPLATE_SETS",
    "resolve_template_set",
]


def library_digest(templates: list[Template]) -> bytes:
    """Order-sensitive digest of a template set.

    The digest changes whenever any template's structure changes (see
    :meth:`Template.fingerprint`) or the set's membership/order changes.
    The analyzer folds it into its frame-cache key, and the compiled
    match plans inherit invalidation from it: a new library digest
    means new cache keys, so no stale plan or cached result can ever be
    replayed against an edited template set.
    """
    h = sha1()
    for template in templates:
        h.update(template.fingerprint())
        h.update(b"\x00")
    return h.digest()


def xor_decrypt_loop() -> Template:
    """The paper's primary decryption-loop template (Figures 2 and 6)."""
    return Template(
        name="xor_decrypt_loop",
        description="xor read-modify-write through a pointer, pointer step, "
                    "loop back — the classic polymorphic decoder",
        category="decoder",
        severity="high",
        ordered=False,  # loop bodies may be rotated; semantics are unordered
        max_gap=24,
        nodes=[
            MemRmw(ops=frozenset({"xor"}), addr="PTR", key="KEY", size=None),
            PointerStep(var="PTR"),
            LoopBack(),
        ],
    )


def admmutate_alt_decoder() -> Template:
    """ADMmutate's second decoder family (Figure 7): a split
    load-compute-store loop using mov/or/and/not sequences."""
    return Template(
        name="admmutate_alt_decoder",
        description="load from [PTR], transform register with or/and/not/"
                    "xor/add/sub chain, store back, step pointer, loop",
        category="decoder",
        severity="high",
        ordered=False,
        max_gap=24,
        repeats={1: (1, 6)},
        nodes=[
            LoadFrom(dst="R", addr="PTR", size=None),
            RegCompute(reg="R"),
            StoreTo(addr="PTR", src="R", size=None),
            PointerStep(var="PTR"),
            LoopBack(),
        ],
    )


def generic_decrypt_loop() -> Template:
    """Extension: rmw decoders that use add/sub/rotate instead of xor."""
    return Template(
        name="generic_decrypt_loop",
        description="any invertible read-modify-write decoder loop "
                    "(add/sub/xor/rol/ror/not)",
        category="decoder-extension",
        severity="medium",
        ordered=False,
        max_gap=24,
        nodes=[
            MemRmw(ops=frozenset({"xor", "add", "sub", "rol", "ror", "not"}),
                   addr="PTR", key="KEY", size=None),
            PointerStep(var="PTR"),
            LoopBack(),
        ],
    )


def linux_shell_spawn() -> Template:
    """The Figure 6 template: execve of a stack-constructed /bin/sh."""
    return Template(
        name="linux_shell_spawn",
        description="write '/bin' and 'sh' constants to memory/stack, then "
                    "int 0x80 with eax=11 (execve)",
        category="shell-spawn",
        severity="critical",
        ordered=False,
        max_gap=48,
        nodes=[
            ConstBytesWrite(contains=b"/bin"),
            ConstBytesWrite(contains=b"sh"),
            Syscall(vector=0x80, regs={"eax": 11}),
        ],
    )


def port_bind_shell() -> Template:
    """The §5.1 extension: a socket is created and bound before the shell
    spawn, i.e. the shell is served on a network port."""
    return Template(
        name="port_bind_shell",
        description="socketcall socket(ebx=1), bind(ebx=2), listen(ebx=4) "
                    "sequence — shell bound to a port",
        category="shell-spawn",
        severity="critical",
        ordered=True,
        max_gap=48,
        nodes=[
            Syscall(vector=0x80, regs={"eax": 0x66, "ebx": 1}),
            ConstCapture(var="SOCKADDR", predicate=_looks_like_sockaddr_in,
                         label="sockaddr_in dword (bound port)"),
            Syscall(vector=0x80, regs={"eax": 0x66, "ebx": 2}),
            Syscall(vector=0x80, regs={"eax": 0x66, "ebx": 4}),
        ],
    )


def codered_ii_vector() -> Template:
    """The §5.3 template for Code Red II's initial exploitation vector."""
    return Template(
        name="codered_ii_vector",
        description="repeated pushes of 0x7801xxxx system-DLL addresses "
                    "followed by an indirect call (CRII memory addressing)",
        category="worm",
        severity="critical",
        ordered=True,
        max_gap=16,
        repeats={0: (2, 8)},
        nodes=[
            PushValue(predicate=lambda v: (v >> 16) == 0x7801,
                      label="0x7801xxxx system address"),
            IndirectCall(),
        ],
    )


def xor_only_templates() -> list[Template]:
    """The template set before the ADMmutate 68% experiment (§5.2): the xor
    decoder only."""
    return [xor_decrypt_loop()]


def decoder_templates() -> list[Template]:
    """Both decoder families — the set that reaches 100% on ADMmutate."""
    return [xor_decrypt_loop(), admmutate_alt_decoder()]


def paper_templates() -> list[Template]:
    """The full template set used in the paper's evaluation (§5.1-5.4)."""
    return [
        xor_decrypt_loop(),
        admmutate_alt_decoder(),
        linux_shell_spawn(),
        port_bind_shell(),
        codered_ii_vector(),
    ]


def all_templates() -> list[Template]:
    """Paper templates plus extensions."""
    return paper_templates() + [generic_decrypt_loop()]


#: Template sets addressable *by name*, so worker processes can rebuild
#: them locally instead of unpickling template objects.
TEMPLATE_SETS = {
    "paper": paper_templates,
    "all": all_templates,
    "xor-only": xor_only_templates,
    "decoder": decoder_templates,
}


def resolve_template_set(name: str) -> list[Template]:
    """Template list for a named set; raises ``ValueError`` on unknown."""
    try:
        factory = TEMPLATE_SETS[name]
    except KeyError:
        raise ValueError(
            f"unknown template set {name!r}; expected one of "
            f"{sorted(TEMPLATE_SETS)}") from None
    return factory()
