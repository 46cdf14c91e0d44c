"""Packet substrate: protocol layers, packets, pcap I/O, flows, software wire.

This package replaces the libpcap/scapy layer a real deployment would use.
See DESIGN.md ("Substitutions") for the fidelity argument.
"""

from .._lazy import lazy_exports

__all__ = [
    "Ipv4Network", "checksum", "int_to_ip", "ip_to_int",
    "Ethernet", "Ipv4", "Tcp", "Udp", "Icmp",
    "ETHERTYPE_IPV4", "PROTO_ICMP", "PROTO_TCP", "PROTO_UDP",
    "TCP_ACK", "TCP_FIN", "TCP_PSH", "TCP_RST", "TCP_SYN", "TCP_URG",
    "Packet", "DecodeError", "tcp_packet", "udp_packet", "icmp_packet",
    "PcapReader", "PcapWriter", "read_pcap", "write_pcap",
    "FlowKey", "Stream", "StreamReassembler",
    "IpDefragmenter", "fragment_packet",
    "Host", "TcpSession", "Wire",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "inet": ("Ipv4Network", "checksum", "int_to_ip", "ip_to_int"),
    "layers": ("Ethernet", "Ipv4", "Tcp", "Udp", "Icmp",
               "ETHERTYPE_IPV4", "PROTO_ICMP", "PROTO_TCP", "PROTO_UDP",
               "TCP_ACK", "TCP_FIN", "TCP_PSH", "TCP_RST", "TCP_SYN",
               "TCP_URG"),
    "packet": ("Packet", "DecodeError", "tcp_packet", "udp_packet",
               "icmp_packet"),
    "pcap": ("PcapReader", "PcapWriter", "read_pcap", "write_pcap"),
    "flow": ("FlowKey", "Stream", "StreamReassembler"),
    "defrag": ("IpDefragmenter", "fragment_packet"),
    "wire": ("Host", "TcpSession", "Wire"),
})
