"""A from-scratch user-level network stack (ethernet/ARP/IPv4/UDP/TCP)."""

from .arp import ARP_REPLY, ARP_REQUEST, ArpPacket
from .ethernet import ETHERTYPE_ARP, ETHERTYPE_IPV4, EthernetFrame
from .framing import Deframer, FramingError, frame_message
from .ipv4 import DEFAULT_MTU, PROTO_TCP, PROTO_UDP, Ipv4Packet
from .packet import PacketError, internet_checksum
from .stack import BROADCAST_MAC, NetStack
from .tcp import TcpConnection, TcpError, TcpListener, TcpSegment
from .udp import UdpDatagram

__all__ = [
    "NetStack",
    "EthernetFrame",
    "ArpPacket",
    "Ipv4Packet",
    "UdpDatagram",
    "TcpSegment",
    "TcpConnection",
    "TcpListener",
    "Deframer",
    "frame_message",
    "FramingError",
    "PacketError",
    "internet_checksum",
    "ETHERTYPE_ARP",
    "ETHERTYPE_IPV4",
    "PROTO_TCP",
    "PROTO_UDP",
    "DEFAULT_MTU",
    "ARP_REQUEST",
    "ARP_REPLY",
]
